// Package loadgen synthesizes reproducible open-loop load for the
// fleet simulator: streams of latency-request arrivals (Poisson,
// bursty, diurnal) and a backlog of batch jobs. Every trace is a pure
// function of its spec and seed — all randomness comes from named rng
// streams — so two generations of the same spec are byte-identical and
// a fleet run replays the exact same workload under every
// consolidation policy it compares.
package loadgen

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Process names an arrival process.
type Process string

const (
	// ProcPoisson is a memoryless stream at a constant mean rate —
	// the open-loop baseline of datacenter load testing.
	ProcPoisson Process = "poisson"
	// ProcBursty is a two-state modulated Poisson process: quiet
	// periods at a reduced rate interrupted by bursts at
	// BurstFactor times the quiet rate, with the mean rate preserved.
	ProcBursty Process = "bursty"
	// ProcDiurnal modulates the rate sinusoidally over the trace —
	// the day/night swing of user-facing traffic compressed into the
	// simulated window.
	ProcDiurnal Process = "diurnal"
)

// RequestClass describes one open-loop stream of latency requests: an
// application, a mean arrival rate in requests per simulated second,
// and the shape of the process.
type RequestClass struct {
	// App names the workload-catalog application each request runs.
	App string `json:"app"`
	// Process is poisson (default), bursty, or diurnal.
	Process Process `json:"process,omitempty"`
	// Rate is the mean arrival rate in requests per simulated second.
	Rate float64 `json:"rate"`

	// BurstFactor is the burst-to-quiet rate ratio of the bursty
	// process (default 6; must be > 1).
	BurstFactor float64 `json:"burst_factor,omitempty"`
	// BurstFrac is the fraction of time spent bursting (default 0.15).
	BurstFrac float64 `json:"burst_frac,omitempty"`
	// BurstSeconds is the mean burst duration (default duration/20).
	BurstSeconds float64 `json:"burst_seconds,omitempty"`

	// Amplitude is the diurnal swing as a fraction of the mean rate:
	// rate(t) = Rate * (1 + Amplitude*sin(2πt/Period)) (default 0.8).
	Amplitude float64 `json:"amplitude,omitempty"`
	// PeriodSeconds is the diurnal period (default: the trace
	// duration, one full day compressed into the window).
	PeriodSeconds float64 `json:"period,omitempty"`

	// Seed names the class's rng stream (default: the class index).
	Seed string `json:"seed,omitempty"`
}

// BatchDef is one backlog entry: Count queued items, each Iterations
// runs of an application (default 1 run per item).
type BatchDef struct {
	App   string `json:"app"`
	Count int    `json:"count"`
	// Iterations sizes one item in application runs: an item holds its
	// machine's batch slot until that many runs complete.
	Iterations int `json:"iterations,omitempty"`
}

// Arrival is one latency request of a generated trace.
type Arrival struct {
	// AtSeconds is the arrival time in simulated seconds from trace
	// start.
	AtSeconds float64
	// App is the application the request runs.
	App string
	// Class is the index of the generating RequestClass.
	Class int
	// Seq is the request's sequence number within its class.
	Seq int
}

func (c *RequestClass) process() Process {
	if c.Process == "" {
		return ProcPoisson
	}
	return c.Process
}

// Validate checks a request class's shape (application existence is
// checked by the caller against the workload catalog).
func (c *RequestClass) Validate() error {
	switch c.process() {
	case ProcPoisson, ProcBursty, ProcDiurnal:
	default:
		return fmt.Errorf("loadgen: unknown process %q (want poisson, bursty, or diurnal)", c.Process)
	}
	if c.Rate <= 0 {
		return fmt.Errorf("loadgen: class %s needs a positive rate, got %v", c.App, c.Rate)
	}
	if c.BurstFactor != 0 && c.BurstFactor <= 1 {
		return fmt.Errorf("loadgen: class %s burst_factor must exceed 1, got %v", c.App, c.BurstFactor)
	}
	if c.BurstFrac < 0 || c.BurstFrac >= 1 {
		return fmt.Errorf("loadgen: class %s burst_frac must be in [0,1), got %v", c.App, c.BurstFrac)
	}
	if c.BurstSeconds < 0 {
		return fmt.Errorf("loadgen: class %s negative burst_seconds", c.App)
	}
	if c.Amplitude < 0 || c.Amplitude > 1 {
		return fmt.Errorf("loadgen: class %s amplitude must be in [0,1], got %v", c.App, c.Amplitude)
	}
	if c.PeriodSeconds < 0 {
		return fmt.Errorf("loadgen: class %s negative period", c.App)
	}
	return nil
}

// expGap draws an exponential inter-arrival gap at the given rate.
func expGap(r *rng.Stream, rate float64) float64 {
	// 1-Float64() is in (0,1], so Log never sees 0.
	return -math.Log(1-r.Float64()) / rate
}

// ArrivalsScaled generates the merged arrival trace of all classes
// over [0, duration) seconds under a load-scale timeline: every
// class's instantaneous rate is multiplied by the piecewise-constant
// factor, and an empty timeline is the unscaled trace. The trace is
// sorted by time with determinism ties broken by (class, seq); each
// class draws from its own named rng stream, so adding a class never
// perturbs another class's arrivals. Under a timeline each process
// generates candidates at its maximum scaled rate and thins them by
// the instantaneous factor (Lewis-Shedler), so the trace stays a pure
// function of spec, seed, and scale timeline.
func ArrivalsScaled(classes []RequestClass, duration float64, seed string, scales []ScalePoint) ([]Arrival, error) {
	if err := validateScales(scales); err != nil {
		return nil, err
	}
	if duration <= 0 {
		return nil, fmt.Errorf("loadgen: trace duration must be positive, got %v", duration)
	}
	streams := make([][]float64, len(classes))
	for i := range classes {
		c := &classes[i]
		if err := c.Validate(); err != nil {
			return nil, err
		}
		name := c.Seed
		if name == "" {
			name = fmt.Sprintf("class%d", i)
		}
		r := rng.NewNamed("loadgen/" + seed + "/" + name)
		switch c.process() {
		case ProcBursty:
			streams[i] = burstyTimes(r, c, duration, scales)
		case ProcDiurnal:
			streams[i] = diurnalTimes(r, c, duration, scales)
		default:
			streams[i] = poissonTimes(r, c.Rate, duration, scales)
		}
	}
	return merge(classes, streams), nil
}

// merge interleaves the per-class time streams, each ascending, into
// one trace ordered by (time, class, seq): the order sorting their
// concatenation gives, in O(n log k) for n arrivals over k classes. A
// binary min-heap holds the classes with arrivals left, keyed by
// (head time, class index).
func merge(classes []RequestClass, streams [][]float64) []Arrival {
	total := 0
	heads := make([]int, 0, len(streams)) // the heap, of class indices
	for i, ts := range streams {
		total += len(ts)
		if len(ts) > 0 {
			heads = append(heads, i)
		}
	}
	if total == 0 {
		return nil
	}
	pos := make([]int, len(streams)) // next seq per class
	less := func(a, b int) bool {
		ta, tb := streams[a][pos[a]], streams[b][pos[b]]
		return ta < tb || (ta == tb && a < b)
	}
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(heads) {
				return
			}
			if r := c + 1; r < len(heads) && less(heads[r], heads[c]) {
				c = r
			}
			if !less(heads[c], heads[i]) {
				return
			}
			heads[i], heads[c] = heads[c], heads[i]
			i = c
		}
	}
	for i := len(heads)/2 - 1; i >= 0; i-- {
		down(i)
	}
	out := make([]Arrival, 0, total)
	for len(heads) > 0 {
		c := heads[0]
		out = append(out, Arrival{AtSeconds: streams[c][pos[c]], App: classes[c].App, Class: c, Seq: pos[c]})
		if pos[c]++; pos[c] == len(streams[c]) {
			heads[0] = heads[len(heads)-1]
			heads = heads[:len(heads)-1]
		}
		down(0)
	}
	return out
}

// keep thins a candidate drawn at maxF times the unscaled rate: it
// survives with probability factor(t)/maxF. Without a timeline every
// candidate survives and no uniform is drawn, so an unscaled trace
// spends its rng stream on gaps alone.
func keep(r *rng.Stream, scales []ScalePoint, maxF, t float64) bool {
	return len(scales) == 0 || r.Float64()*maxF < factorAt(scales, t)
}

func poissonTimes(r *rng.Stream, rate, duration float64, scales []ScalePoint) []float64 {
	maxF := maxScale(scales)
	var times []float64
	for t := expGap(r, rate*maxF); t < duration; t += expGap(r, rate*maxF) {
		if keep(r, scales, maxF, t) {
			times = append(times, t)
		}
	}
	return times
}

// burstShape resolves the bursty process's parameters over a trace of
// the given duration, defaults filled in: the burst-to-quiet rate
// ratio, the fraction of time bursting, and the mean burst length.
func (c *RequestClass) burstShape(duration float64) (factor, frac, burstLen float64) {
	factor, frac, burstLen = c.BurstFactor, c.BurstFrac, c.BurstSeconds
	if factor == 0 {
		factor = 6
	}
	if frac == 0 {
		frac = 0.15
	}
	if burstLen == 0 {
		burstLen = duration / 20
	}
	return factor, frac, burstLen
}

// BurstPeriods is the expected number of bursts a bursty class steps
// through over duration seconds, duration x burst_frac / burst_seconds
// (0 for the other processes). The generator draws every quiet and
// burst period's length, so its work grows with this count whatever
// the arrival count.
func (c *RequestClass) BurstPeriods(duration float64) float64 {
	if c.process() != ProcBursty {
		return 0
	}
	_, frac, burstLen := c.burstShape(duration)
	return duration * frac / burstLen
}

// burstyTimes alternates quiet and burst states. Rates are chosen so
// the long-run mean equals c.Rate:
//
//	mean = (1-f)*quiet + f*quiet*factor  =>  quiet = mean/(1+f*(factor-1))
//
// State durations are exponential with the configured means and in
// unscaled time, so bursts arrive at irregular (but reproducible)
// times whatever the timeline; a timeline thins the maxF-inflated
// candidates within each state. Stepping stops at the first candidate
// past the trace, so the periods drawn are those inside it.
func burstyTimes(r *rng.Stream, c *RequestClass, duration float64, scales []ScalePoint) []float64 {
	factor, frac, burstLen := c.burstShape(duration)
	quietLen := burstLen * (1 - frac) / frac
	quietRate := c.Rate / (1 + frac*(factor-1))
	burstRate := quietRate * factor
	maxF := maxScale(scales)

	var times []float64
	t, bursting := 0.0, false
	stateEnd := expGap(r, 1/quietLen)
	for {
		rate := quietRate
		if bursting {
			rate = burstRate
		}
		if t += expGap(r, rate*maxF); t >= duration {
			return times
		}
		for t >= stateEnd {
			bursting = !bursting
			mean := quietLen
			if bursting {
				mean = burstLen
			}
			stateEnd += expGap(r, 1/mean)
		}
		if keep(r, scales, maxF, t) {
			times = append(times, t)
		}
	}
}

// diurnalTimes thins a max-rate Poisson stream by the instantaneous
// sinusoidal rate times the scale factor (Lewis-Shedler thinning),
// preserving the mean: candidates run at the maximum scaled peak rate
// and are accepted with probability rate(t)*factor(t) / peak. Without
// a timeline both factors are exactly 1.
func diurnalTimes(r *rng.Stream, c *RequestClass, duration float64, scales []ScalePoint) []float64 {
	amp := c.Amplitude
	if amp == 0 {
		amp = 0.8
	}
	period := c.PeriodSeconds
	if period == 0 {
		period = duration
	}
	maxRate := c.Rate * (1 + amp) * maxScale(scales)
	var times []float64
	for t := expGap(r, maxRate); t < duration; t += expGap(r, maxRate) {
		rate := c.Rate * (1 + amp*math.Sin(2*math.Pi*t/period)) * factorAt(scales, t)
		if r.Float64()*maxRate < rate {
			times = append(times, t)
		}
	}
	return times
}

// ScalePoint steps the fleet-wide arrival-rate multiplier: from At
// seconds onward every class's instantaneous rate is multiplied by
// Factor, until the next point takes over. The multiplier before the
// first point is 1 — an empty point list is the unscaled trace.
type ScalePoint struct {
	At     float64
	Factor float64
}

// validateScales checks a scale timeline: ordered, non-negative times,
// positive factors.
func validateScales(scales []ScalePoint) error {
	prev := 0.0
	for i, s := range scales {
		if s.At < 0 {
			return fmt.Errorf("loadgen: scale point %d: negative time %v", i, s.At)
		}
		if s.At < prev {
			return fmt.Errorf("loadgen: scale point %d: time %v before %v (points must be ordered)", i, s.At, prev)
		}
		if s.Factor <= 0 {
			return fmt.Errorf("loadgen: scale point %d: factor must be positive, got %v", i, s.Factor)
		}
		prev = s.At
	}
	return nil
}

// factorAt is the piecewise-constant multiplier at time t.
func factorAt(scales []ScalePoint, t float64) float64 {
	f := 1.0
	for _, s := range scales {
		if t < s.At {
			break
		}
		f = s.Factor
	}
	return f
}

func maxScale(scales []ScalePoint) float64 {
	m := 1.0
	for _, s := range scales {
		if s.Factor > m {
			m = s.Factor
		}
	}
	return m
}

// BatchItem is one queued batch job: a replica of a BatchDef (or of a
// fleet timeline's batch-arrival) that holds a machine's batch slot
// until Iterations application runs complete. Def and Seq identify the
// replica; Index is its position in the drain order.
type BatchItem struct {
	App        string
	Iterations float64 // application runs this item holds its slot for
	Def        int     // index of the generating BatchDef
	Seq        int     // replica number within the definition
	Index      int     // global drain position
}

// Backlog expands batch definitions into the deterministic item order
// the fleet drains them in: definitions in declaration order, each
// replicated Count times. Seq numbers replicas within a definition
// (they seed distinct rng streams when run).
func Backlog(defs []BatchDef) ([]BatchItem, error) {
	var out []BatchItem
	for i, d := range defs {
		if d.Count < 0 {
			return nil, fmt.Errorf("loadgen: batch %s negative count", d.App)
		}
		if d.Iterations < 0 {
			return nil, fmt.Errorf("loadgen: batch %s negative iterations", d.App)
		}
		n, iters := d.Count, d.Iterations
		if n == 0 {
			n = 1
		}
		if iters == 0 {
			iters = 1
		}
		for k := 0; k < n; k++ {
			out = append(out, BatchItem{App: d.App, Iterations: float64(iters), Def: i, Seq: k, Index: len(out)})
		}
	}
	return out, nil
}
