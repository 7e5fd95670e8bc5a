package partition

import (
	"encoding/json"
	"strconv"

	"repro/internal/cache"
	"repro/internal/workload"
)

// SamplingInterval sizes the decision loop's sampling period the way
// the paper's 100 ms relates to its multi-minute runs: a fixed number
// of decision intervals per foreground execution. Every online plan
// (scenario runs, fleet episodes, the pair CLI, experiment drivers)
// derives its interval from this one rule, so their runs are directly
// comparable.
func SamplingInterval(fg *workload.Profile, scale float64) float64 {
	const intervalsPerRun = 500
	estSeconds := fg.Instructions * scale * 1.5 / 3.4e9
	return estSeconds / intervalsPerRun
}

// ControllerConfig parameterizes the dynamic partitioning framework of
// §6. The paper samples MPKI every 100 ms of wall time and uses
// absolute MPKI-derivative thresholds THR1=THR2=0.02, THR3=0.05; with
// hundreds of millions of instructions per interval those readings are
// nearly noise-free. Our scaled runs have far fewer instructions per
// interval, so the thresholds are expressed *relative* to the running
// MPKI level (documented in DESIGN.md); the algorithm is otherwise
// identical, and the paper reports results are "largely insensitive to
// small parameter changes".
type ControllerConfig struct {
	// THR1: relative MPKI change that signals a phase change beginning.
	THR1 float64
	// THR2: relative MPKI change below which the new phase has settled.
	THR2 float64
	// THR3: relative MPKI growth, after a shrink step, that signals the
	// foreground lost capacity it needed.
	THR3 float64

	// MinFgWays is the smallest foreground allocation the controller
	// will shrink to (paper: 1 MB = 2 ways).
	MinFgWays int
	// MaxFgWays is the largest foreground allocation granted on a phase
	// change (paper: 11 of 12 ways, leaving one for the background).
	MaxFgWays int

	// EWMAAlpha smooths the running average MPKI used by detection.
	EWMAAlpha float64

	// ShrinkCooldown is how many stable intervals must pass between
	// consecutive shrink steps, giving the co-runner time to evict
	// leftover data from deallocated ways so damage becomes visible
	// before the next step (§6.3's too-much-shrinkage hazard).
	ShrinkCooldown int
}

// DefaultControllerConfig returns the thresholds used throughout the
// evaluation.
func DefaultControllerConfig() ControllerConfig {
	return ControllerConfig{
		THR1:           0.25,
		THR2:           0.10,
		THR3:           0.10,
		MinFgWays:      2,
		MaxFgWays:      11,
		EWMAAlpha:      0.4,
		ShrinkCooldown: 2,
	}
}

// keyParams renders the algorithm parameters canonically for memo keys
// (the sampling interval is appended separately by RunKey).
func (c ControllerConfig) keyParams() string {
	buf := make([]byte, 0, 64)
	buf = append(buf, "t1="...)
	buf = strconv.AppendFloat(buf, c.THR1, 'g', -1, 64)
	buf = append(buf, ",t2="...)
	buf = strconv.AppendFloat(buf, c.THR2, 'g', -1, 64)
	buf = append(buf, ",t3="...)
	buf = strconv.AppendFloat(buf, c.THR3, 'g', -1, 64)
	buf = append(buf, ",min="...)
	buf = strconv.AppendInt(buf, int64(c.MinFgWays), 10)
	buf = append(buf, ",max="...)
	buf = strconv.AppendInt(buf, int64(c.MaxFgWays), 10)
	buf = append(buf, ",a="...)
	buf = strconv.AppendFloat(buf, c.EWMAAlpha, 'g', -1, 64)
	buf = append(buf, ",cd="...)
	buf = strconv.AppendInt(buf, int64(c.ShrinkCooldown), 10)
	return string(buf)
}

func init() {
	Register("dynamic", "online §6 controller: phase detection plus gradual reclamation of latency-job ways",
		func(params json.RawMessage) (Policy, error) {
			var p struct {
				THR1     *float64 `json:"thr1"`
				THR2     *float64 `json:"thr2"`
				THR3     *float64 `json:"thr3"`
				MinWays  *int     `json:"min_ways"`
				MaxWays  *int     `json:"max_ways"`
				EWMA     *float64 `json:"ewma"`
				Cooldown *int     `json:"cooldown"`
			}
			if err := decodeParams(params, &p); err != nil {
				return nil, err
			}
			cfg := DefaultControllerConfig()
			setF := func(dst *float64, v *float64) {
				if v != nil {
					*dst = *v
				}
			}
			setI := func(dst *int, v *int) {
				if v != nil {
					*dst = *v
				}
			}
			setF(&cfg.THR1, p.THR1)
			setF(&cfg.THR2, p.THR2)
			setF(&cfg.THR3, p.THR3)
			setI(&cfg.MinFgWays, p.MinWays)
			setI(&cfg.MaxFgWays, p.MaxWays)
			setF(&cfg.EWMAAlpha, p.EWMA)
			setI(&cfg.ShrinkCooldown, p.Cooldown)
			return dynamicPolicy{cfg: cfg}, nil
		})
}

// dynamicPolicy is the registered §6 policy: an immutable configuration
// whose Instance spawns the per-run controller state.
type dynamicPolicy struct {
	cfg ControllerConfig
}

func (dynamicPolicy) Name() string        { return "dynamic" }
func (p dynamicPolicy) KeyParams() string { return p.cfg.keyParams() }
func (dynamicPolicy) Online() bool        { return true }
func (p dynamicPolicy) Instance() Policy  { return &dynamicRun{cfg: p.cfg} }
func (dynamicPolicy) CheckMix(s *Snapshot) error {
	return needOneLatency("dynamic", s)
}

// Decide on the shared prototype only ever sees plan-time snapshots
// (the loop drives a fresh Instance); it reports the initial grant.
func (p dynamicPolicy) Decide(s *Snapshot) []cache.WayMask {
	return p.Instance().Decide(s)
}

// phase-detection states (Algorithm 6.1 return values).
const (
	phaseStable   = 0 // steady state, or a phase change just finished
	phaseChanging = 1 // mid-transition
	phaseStarted  = 2 // a new phase just started
)

// dynamicRun is one run's controller state, implementing Algorithms 6.1
// and 6.2: it monitors the latency job's interval MPKI, grants it the
// maximum allocation when a phase change is detected, then gradually
// shrinks the allocation until shrinking hurts (MPKI rises), giving the
// reclaimed ways to everyone else.
type dynamicRun struct {
	cfg   ControllerConfig
	assoc int
	ready bool

	avgMPKI  float64
	haveAvg  bool
	newPhase bool // Algorithm 6.1's static new_phase flag

	phaseStarts bool    // Algorithm 6.2's phase_starts flag
	baseMPKI    float64 // minimum MPKI observed this phase (full-grant yardstick)
	haveBase    bool
	prevMPKI    float64 // previous interval reading (flattening gate)
	havePrev    bool
	cooldown    int // stable intervals until the next shrink is allowed
	fgWays      int
}

func (*dynamicRun) Name() string        { return "dynamic" }
func (d *dynamicRun) KeyParams() string { return d.cfg.keyParams() }
func (*dynamicRun) Online() bool        { return true }
func (d *dynamicRun) Instance() Policy  { return &dynamicRun{cfg: d.cfg} }
func (d *dynamicRun) CheckMix(s *Snapshot) error {
	return needOneLatency("dynamic", s)
}

// Decide returns the current split: plan-time snapshots get the initial
// maximal grant; live snapshots advance the state machine by one
// sampling interval first.
func (d *dynamicRun) Decide(s *Snapshot) []cache.WayMask {
	fg := s.latencyIndex()
	if fg < 0 {
		panic("partition: dynamic policy without a single latency job (CheckMix should have rejected this)")
	}
	if !d.ready {
		d.assoc = s.Assoc
		if d.cfg.MaxFgWays <= 0 || d.cfg.MaxFgWays >= d.assoc {
			d.cfg.MaxFgWays = d.assoc - 1
		}
		if d.cfg.MinFgWays < 1 {
			d.cfg.MinFgWays = 1
		}
		d.fgWays = d.cfg.MaxFgWays
		d.phaseStarts = true
		d.ready = true
	}
	if s.Live {
		d.step(s.Jobs[fg].MPKI)
	}
	return splitMasks(len(s.Jobs), fg, d.fgWays, d.assoc)
}

// setFgWays clamps and records a new target allocation.
func (d *dynamicRun) setFgWays(w int) {
	if w < 1 {
		w = 1
	}
	if w > d.assoc-1 {
		w = d.assoc - 1
	}
	d.fgWays = w
}

// relDelta returns |a-b| relative to the larger magnitude, with a floor
// so near-zero MPKI phases do not divide by zero and cache-indifferent
// applications (MPKI ~1) are not pinned to large allocations by noise.
func relDelta(a, b float64) float64 {
	const floor = 4.0 // MPKI
	base := a
	if b > base {
		base = b
	}
	if base < floor {
		base = floor
	}
	d := a - b
	if d < 0 {
		d = -d
	}
	return d / base
}

// phaseDet is Algorithm 6.1.
func (d *dynamicRun) phaseDet(cur float64) int {
	if !d.haveAvg {
		d.avgMPKI = cur
		d.haveAvg = true
		return phaseStable
	}
	if !d.newPhase {
		if relDelta(d.avgMPKI, cur) > d.cfg.THR1 {
			d.newPhase = true
			d.avgMPKI = cur // restart the running average in the new phase
			return phaseStarted
		}
	} else if relDelta(d.avgMPKI, cur) < d.cfg.THR2 {
		d.newPhase = false // phase change just finished
	}
	d.avgMPKI = (1-d.cfg.EWMAAlpha)*d.avgMPKI + d.cfg.EWMAAlpha*cur
	if d.newPhase {
		return phaseChanging
	}
	return phaseStable
}

// step is Algorithm 6.2, run once per sampling interval with the
// latency job's interval MPKI.
func (d *dynamicRun) step(cur float64) {
	flattened := d.havePrev && relDelta(d.prevMPKI, cur) < d.cfg.THR3
	d.prevMPKI = cur
	d.havePrev = true

	switch det := d.phaseDet(cur); {
	case det == phaseStarted:
		d.phaseStarts = true
		d.haveBase = false
		d.havePrev = false
		d.setFgWays(d.cfg.MaxFgWays)
	case det == phaseStable && d.phaseStarts:
		// Track the phase's best (minimum) MPKI: right after a grant
		// the working set is still warming, so early readings are
		// inflated; the minimum is the honest yardstick. Paper
		// Algorithm 6.2 differences consecutive intervals; at our
		// reduced scale leftover data in deallocated ways hides shrink
		// damage for many intervals ("allowing too much shrinkage",
		// §6.3), so we anchor against this cumulative baseline instead.
		if !d.haveBase || cur < d.baseMPKI {
			d.baseMPKI = cur
			d.haveBase = true
		}
		hurt := cur > d.baseMPKI && relDelta(d.baseMPKI, cur) >= d.cfg.THR3
		// An MPKI this low cannot justify holding capacity: reclaim
		// without waiting for the series to flatten.
		trivial := cur < 3.0
		if trivial {
			flattened = true
		}
		switch {
		case hurt:
			// MPKI rose above the phase floor: give back capacity and
			// settle.
			d.setFgWays(minInt(d.fgWays+2, d.cfg.MaxFgWays))
			d.phaseStarts = false
		case !flattened:
			// Still warming (MPKI moving): no shrink decisions yet.
		case d.cooldown > 0:
			d.cooldown--
		case d.fgWays > d.cfg.MinFgWays:
			d.setFgWays(d.fgWays - 1)
			d.cooldown = d.cfg.ShrinkCooldown
		default:
			d.phaseStarts = false // hold at the floor
		}
	case det == phaseStable && !d.phaseStarts && d.haveBase:
		// Settled, but leftover data in deallocated ways may only now
		// be getting evicted by the co-runner: if MPKI stays elevated
		// well above the phase baseline, treat it as the phase change
		// the paper promises ("as soon as another application evicts
		// the leftover data, a phase change will be detected") and
		// re-grant the maximum.
		if cur > d.baseMPKI && relDelta(d.baseMPKI, cur) >= d.cfg.THR1 {
			d.phaseStarts = true
			d.haveBase = false
			d.setFgWays(d.cfg.MaxFgWays)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
