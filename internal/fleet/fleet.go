// Package fleet is the datacenter layer above the single-machine run
// layer: a deterministic discrete-event simulator of N machines under
// open-loop load. A loadgen trace delivers latency requests and a
// batch backlog; a consolidation policy decides, request by request,
// which machine serves each one and whether co-locating it with batch
// work is acceptable; and every service time, throughput rate, and
// power level in the fleet comes from full single-machine simulations
// executed through the sched engine — fanned across its worker pool
// and deduplicated against the same memo keys the experiment drivers
// use. The fleet report aggregates what the paper's argument is about:
// tail request slowdown (p50/p95/p99), machines used, utilization, and
// energy, per consolidation policy over the identical arrival trace.
package fleet

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/loadgen"
	"repro/internal/partition"
	"repro/internal/workload"
)

// PolicyName names a consolidation policy — the rule that assigns
// arriving latency requests and queued batch items to machines.
type PolicyName string

const (
	// SpreadIdle is the conservative baseline: latency requests go to
	// the least-recently-used fully idle machine and batch work only
	// runs on machines with no latency traffic, so nothing is ever
	// co-located. Best responsiveness, most machines.
	SpreadIdle PolicyName = "spread-idle"
	// PackPartition consolidates: requests prefer machines already
	// running batch work, but a co-location is accepted only if the
	// protective partition search (partition.PickForForeground over
	// the way sweep) predicts request slowdown within the fleet's
	// slowdown_limit. The paper's policy, fleet-scale.
	PackPartition PolicyName = "pack-partition"
	// UtilTarget is the naive packer: requests fill the busiest
	// machine below the utilization target with no partition check —
	// the consolidation strawman whose tail latency the partition
	// check exists to fix.
	UtilTarget PolicyName = "util-target"
)

// Policies returns every policy in presentation order (the default
// policy block of a fleet scenario).
func Policies() []PolicyName {
	return []PolicyName{SpreadIdle, PackPartition, UtilTarget}
}

// PartitionMode names the partition policy of co-located machines: any
// name in the partition registry (default "biased", in its
// foreground-protective form). Dispatch is entirely through the
// policy's partition plan, so a newly registered policy works in fleet
// scenarios with no fleet-layer change.
type PartitionMode string

// Fidelity selects the oracle's simulation tier: how the per-pair
// co-location numbers the event loop consumes are obtained. The alone
// baselines are cycle-accurate in every tier.
type Fidelity string

const (
	// FidelityExact (the default) simulates every co-location
	// cycle-accurately — way sweeps, online episodes, static splits.
	FidelityExact Fidelity = "exact"
	// FidelityFast predicts every co-location analytically from MRC
	// profiles (internal/model): one profiling run per application,
	// no pair simulations.
	FidelityFast Fidelity = "fast"
	// FidelityAuto screens every co-location with the fast tier and
	// re-simulates exactly only the borderline ones, whose predicted
	// request slowdown lands within fast_margin of slowdown_limit.
	FidelityAuto Fidelity = "auto"
)

// ParseFidelity resolves a fidelity name ("" = exact) or returns the
// one-line error the CLI and server surface for an unknown value.
func ParseFidelity(s string) (Fidelity, error) {
	switch Fidelity(s) {
	case "", FidelityExact:
		return FidelityExact, nil
	case FidelityFast:
		return FidelityFast, nil
	case FidelityAuto:
		return FidelityAuto, nil
	}
	return "", fmt.Errorf("fleet: unknown fidelity %q (want exact, fast, or auto)", s)
}

// Def is the fleet block of a scenario file: the machine pool, the
// open-loop load, and the consolidation policies to compare over it.
type Def struct {
	// Machines is the pool size.
	Machines int `json:"machines"`
	// Cores overrides the per-machine core count (0 = the default
	// platform's; must be even — each machine splits into a
	// latency half and a batch half, the paper's §5 placement).
	Cores int `json:"cores,omitempty"`
	// Duration is the arrival-trace length in simulated seconds;
	// the run itself continues until all accepted work drains.
	Duration float64 `json:"duration"`
	// Seed names the trace's rng streams (default "fleet").
	Seed string `json:"seed,omitempty"`
	// Policies lists the consolidation policies to evaluate on the
	// identical trace (default: all of them).
	Policies []PolicyName `json:"policies,omitempty"`
	// Partition is the LLC policy of co-located machines: any
	// registered partition policy name (default biased, in its
	// foreground-protective form).
	Partition PartitionMode `json:"partition,omitempty"`
	// PartitionParams optionally parameterizes the partition policy
	// (the scenario layer's policy params block).
	PartitionParams json.RawMessage `json:"partition_params,omitempty"`
	// SlowdownLimit is pack-partition's acceptance threshold: a
	// co-location is accepted only if the partition-protected request
	// slowdown stays within it (default 1.15).
	SlowdownLimit float64 `json:"slowdown_limit,omitempty"`
	// UtilTarget is util-target's fill threshold in [0,1]: machines
	// at or above it are not packed further (default 0.75).
	UtilTarget float64 `json:"util_target,omitempty"`
	// BatchWidth caps the backlog items resident across the fleet at
	// once — the operator's drain-parallelism knob (default:
	// machines/4, at least 1).
	BatchWidth int `json:"batch_width,omitempty"`
	// Fidelity selects the oracle tier: exact (default), fast, or auto.
	Fidelity Fidelity `json:"fidelity,omitempty"`
	// FastMargin is auto's screening band around slowdown_limit: a
	// co-location predicted within it is re-simulated exactly
	// (default 0.05).
	FastMargin float64 `json:"fast_margin,omitempty"`
	// Arrivals declares the open-loop latency request streams.
	Arrivals []loadgen.RequestClass `json:"arrivals,omitempty"`
	// Backlog declares the batch-job queue drained across the fleet.
	Backlog []loadgen.BatchDef `json:"backlog,omitempty"`
	// Events is the deterministic timeline the run replays: machine
	// failures and maintenance drains, recoveries, mid-run batch
	// arrivals/departures, and load spikes. Empty means the static
	// always-healthy fleet of an event-free run.
	Events []Event `json:"events,omitempty"`
	// Hysteresis is the power-up hold-down in simulated seconds: a
	// machine returning to service is skipped by placement (except as
	// a last resort) until the hold expires, so a flapping machine
	// cannot churn placements (default 0 = immediately eligible).
	Hysteresis float64 `json:"hysteresis,omitempty"`
}

func (d *Def) seed() string {
	if d.Seed == "" {
		return "fleet"
	}
	return d.Seed
}

func (d *Def) policies() []PolicyName {
	if len(d.Policies) == 0 {
		return Policies()
	}
	return d.Policies
}

func (d *Def) partition() PartitionMode {
	if d.Partition == "" {
		return "biased"
	}
	return d.Partition
}

// policy resolves the fleet's partition mode through the registry. The
// biased default keeps its historical fleet meaning — the protective
// Figure 13 rule — unless partition_params picks another.
func (d *Def) policy() (partition.Policy, error) {
	params := d.PartitionParams
	if d.partition() == "biased" {
		// The fleet's biased default is the protective Figure 13 rule;
		// inject it whenever the params block does not pick one itself
		// (an empty or rule-less block must not silently flip to the
		// background rule). Malformed params pass through untouched so
		// the factory reports them.
		var m map[string]json.RawMessage
		if len(params) == 0 || json.Unmarshal(params, &m) == nil {
			if m == nil {
				m = map[string]json.RawMessage{}
			}
			if _, ok := m["rule"]; !ok {
				m["rule"] = json.RawMessage(`"foreground"`)
				if enc, err := json.Marshal(m); err == nil {
					params = enc
				}
			}
		}
	}
	name := string(d.partition())
	p, err := partition.New(name, params)
	if err != nil {
		for _, n := range partition.Names() {
			if n == name { // known policy, bad params
				return nil, fmt.Errorf("fleet: partition mode %s: %w", name, err)
			}
		}
		return nil, fmt.Errorf("fleet: unknown partition mode %q (registered: %s)",
			name, strings.Join(partition.Names(), ", "))
	}
	// Every co-location episode is the two-job pair shape; reject
	// policies whose shape rules cannot hold there. Assoc is not known
	// until the oracle resolves the platform, so assoc-dependent rules
	// are re-checked there through checkEpisodeShape.
	if err := p.CheckMix(episodeSnapshot(0)); err != nil {
		return nil, fmt.Errorf("fleet: partition mode %s: %w", d.partition(), err)
	}
	if name == "explicit" {
		// Explicit takes per-job declared way ranges; fleet episodes
		// declare none, so the mode would silently run as shared.
		return nil, fmt.Errorf("fleet: partition mode explicit needs per-job way ranges, which fleet episodes cannot declare (use shared, fair, biased, dynamic, or utility)")
	}
	return p, nil
}

// episodeSnapshot is the co-location episode's shape as the policy
// layer sees it: a latency request over a batch occupant. assoc 0 =
// platform not yet known.
func episodeSnapshot(assoc int) *partition.Snapshot {
	return &partition.Snapshot{Assoc: assoc, Jobs: []partition.JobView{{Latency: true}, {}}}
}

// checkEpisodeShape re-validates the partition policy against the real
// LLC geometry once the oracle has resolved the platform — the fleet
// analogue of the scenario planner's plan-time CheckMix, turning bad
// assoc-dependent params (e.g. utility min_ways too large) into a
// descriptive error instead of a mid-run panic.
func (d *Def) checkEpisodeShape(p partition.Policy, assoc int) error {
	if err := p.CheckMix(episodeSnapshot(assoc)); err != nil {
		return fmt.Errorf("fleet: partition mode %s: %w", d.partition(), err)
	}
	return nil
}

func (d *Def) slowdownLimit() float64 {
	if d.SlowdownLimit == 0 {
		return 1.15
	}
	return d.SlowdownLimit
}

func (d *Def) utilTarget() float64 {
	if d.UtilTarget == 0 {
		return 0.75
	}
	return d.UtilTarget
}

// fidelity resolves the effective tier, treating an unset field as
// exact; Validate rejects unknown names before any run reaches here.
func (d *Def) fidelity() Fidelity {
	if f, err := ParseFidelity(string(d.Fidelity)); err == nil {
		return f
	}
	return d.Fidelity
}

// EffectiveFidelity exposes the resolved tier (the envelope echoes it).
func (d *Def) EffectiveFidelity() Fidelity { return d.fidelity() }

func (d *Def) fastMargin() float64 {
	if d.FastMargin == 0 {
		return 0.05
	}
	return d.FastMargin
}

// Size limits. A definition may come from any HTTP client, and a run's
// memory grows with its machines, arrivals and batch items, so Validate
// rejects a definition past these before anything is sized from it.
// They leave room for ten times the shipped 10,000-machine example.
const (
	maxMachines = 100_000
	// maxArrivals bounds the expected trace: the sum over classes of
	// rate x duration, at the timeline's peak load-scale factor.
	maxArrivals = 1_000_000
	// maxBatchItems bounds the backlog plus every batch-arrival's items.
	maxBatchItems = 1_000_000
	// maxBurstPeriods bounds each bursty class's expected bursts over
	// the trace (duration x burst_frac / burst_seconds): the generator
	// steps through every quiet and burst period, however few arrive.
	maxBurstPeriods = 1_000_000
)

// Validate checks everything that does not depend on the platform:
// pool shape and size, known applications, load volume, policies,
// partition mode, and threshold ranges.
func (d *Def) Validate() error {
	if d.Machines < 1 {
		return fmt.Errorf("fleet: needs at least one machine, got %d", d.Machines)
	}
	if d.Machines > maxMachines {
		return fmt.Errorf("fleet: %d machines exceeds the limit of %d", d.Machines, maxMachines)
	}
	if d.Cores < 0 || d.Cores%2 != 0 {
		return fmt.Errorf("fleet: cores must be a positive even count (latency half + batch half), got %d", d.Cores)
	}
	if d.Duration <= 0 {
		return fmt.Errorf("fleet: trace duration must be positive, got %v", d.Duration)
	}
	if len(d.Arrivals) == 0 && len(d.Backlog) == 0 {
		return fmt.Errorf("fleet: no arrivals and no backlog — nothing to run")
	}
	for i := range d.Arrivals {
		c := &d.Arrivals[i]
		if _, err := workload.ByName(c.App); err != nil {
			return fmt.Errorf("fleet: arrival class %d: %w", i, err)
		}
		if err := c.Validate(); err != nil {
			return fmt.Errorf("fleet: arrival class %d: %w", i, err)
		}
	}
	for i, b := range d.Backlog {
		if _, err := workload.ByName(b.App); err != nil {
			return fmt.Errorf("fleet: backlog %d: %w", i, err)
		}
		if b.Count < 0 {
			return fmt.Errorf("fleet: backlog %d (%s): negative count", i, b.App)
		}
	}
	if err := d.checkVolume(); err != nil {
		return err
	}
	seen := map[PolicyName]bool{}
	for _, p := range d.policies() {
		switch p {
		case SpreadIdle, PackPartition, UtilTarget:
		default:
			return fmt.Errorf("fleet: unknown policy %q (want spread-idle, pack-partition, or util-target)", p)
		}
		if seen[p] {
			return fmt.Errorf("fleet: policy %s listed twice", p)
		}
		seen[p] = true
	}
	if _, err := d.policy(); err != nil {
		return err
	}
	if d.SlowdownLimit < 0 || (d.SlowdownLimit > 0 && d.SlowdownLimit < 1) {
		return fmt.Errorf("fleet: slowdown_limit must be >= 1, got %v", d.SlowdownLimit)
	}
	if d.UtilTarget < 0 || d.UtilTarget > 1 {
		return fmt.Errorf("fleet: util_target must be in [0,1], got %v", d.UtilTarget)
	}
	if d.BatchWidth < 0 {
		return fmt.Errorf("fleet: negative batch_width")
	}
	if _, err := ParseFidelity(string(d.Fidelity)); err != nil {
		return err
	}
	if d.FastMargin < 0 {
		return fmt.Errorf("fleet: fast_margin must be >= 0, got %v", d.FastMargin)
	}
	return d.validateEvents()
}

// checkVolume enforces maxArrivals, maxBurstPeriods and maxBatchItems.
// Counts are compared one by one before they are summed, so no sum
// overflows.
func (d *Def) checkVolume() error {
	peak := 1.0
	for _, ev := range d.Events {
		if ev.Kind == EvLoadScale && ev.Factor > peak {
			peak = ev.Factor
		}
	}
	expected := 0.0
	for i := range d.Arrivals {
		c := &d.Arrivals[i]
		expected += c.Rate * d.Duration * peak
		if n := c.BurstPeriods(d.Duration); n > maxBurstPeriods {
			return fmt.Errorf("fleet: arrival class %d (%s): %.3g expected bursts (duration x burst_frac / burst_seconds) exceeds the limit of %d",
				i, c.App, n, maxBurstPeriods)
		}
	}
	if expected > maxArrivals {
		return fmt.Errorf("fleet: %.0f expected arrivals (rate x duration at the peak load-scale) exceeds the limit of %d",
			expected, maxArrivals)
	}
	// over adds count items (0 means one) to the running total and
	// reports whether that passes the limit.
	items := 0
	over := func(count int) bool {
		if count > maxBatchItems {
			return true
		}
		items += max(count, 1)
		return items > maxBatchItems
	}
	for i, b := range d.Backlog {
		if over(b.Count) {
			return fmt.Errorf("fleet: backlog %d (%s) takes the batch items past the limit of %d",
				i, b.App, maxBatchItems)
		}
	}
	for i, ev := range d.Events {
		if ev.Kind == EvBatchArrival && over(ev.Count) {
			return fmt.Errorf("fleet: event %d (batch-arrival %s) takes the batch items past the limit of %d",
				i, ev.App, maxBatchItems)
		}
	}
	return nil
}

// fgApps returns the distinct latency applications in class order.
func (d *Def) fgApps() []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range d.Arrivals {
		if !seen[c.App] {
			seen[c.App] = true
			out = append(out, c.App)
		}
	}
	return out
}

// bgApps returns the distinct batch applications in backlog order.
func (d *Def) bgApps() []string {
	var out []string
	seen := map[string]bool{}
	for _, b := range d.Backlog {
		if !seen[b.App] {
			seen[b.App] = true
			out = append(out, b.App)
		}
	}
	return out
}
