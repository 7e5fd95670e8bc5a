// Package scenario is the declarative run layer: an N-job consolidation
// scenario — each job an application with a role, thread count, and
// replica count — plus a placement policy, a partitioning policy, and a
// metrics block, described as a Go value or a JSON file and compiled
// down to one general sched.MixSpec. The canonical shapes of the
// paper's evaluation (an application alone, the §5 foreground/background
// pair, the §6.3 multi-peer mix) are all degenerate scenarios, and new
// workload mixes are a scenario file rather than a code change — see
// examples/scenarios/ and DESIGN.md for the format.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/fleet"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/workload"
)

// Role classifies a job's function in the mix; it decides the job's
// termination behavior and which metrics apply to it.
type Role string

const (
	// RoleLatency is the responsiveness-critical foreground: it runs to
	// completion, ends the measurement window, and is scored by its
	// slowdown versus running alone on the same placement.
	RoleLatency Role = "latency"
	// RoleBatch is throughput work. By default it loops continuously
	// (the paper's background methodology) and is scored by iteration
	// throughput; with "loop": false it runs exactly once and
	// contributes to weighted speedup instead (the §5.3 consolidation
	// accounting).
	RoleBatch Role = "batch"
	// RoleStream is a streaming aggressor: a continuously-looping
	// bandwidth hog co-located to pressure the mix. It never
	// terminates the run.
	RoleStream Role = "stream"
)

// Names of the shipped partition policies, as spelled in scenario
// files. The authoritative set is the partition package's registry —
// these constants exist for drivers and tests that construct scenarios
// in Go.
const (
	PartitionShared   = "shared"
	PartitionFair     = "fair"
	PartitionBiased   = "biased"
	PartitionDynamic  = "dynamic"
	PartitionExplicit = "explicit"
	PartitionUtility  = "utility"
)

// PartitionPolicies lists the policies every mix can run under, in
// presentation order (explicit needs per-job ranges, so it is not a
// drop-in comparison point).
func PartitionPolicies() []string {
	return []string{PartitionShared, PartitionFair, PartitionBiased, PartitionDynamic, PartitionUtility}
}

// PolicyRef selects a registered partition policy, optionally with
// parameters. In JSON it is either the legacy string alias
// ("policy": "shared") or the generic object form
// ("policy": {"name": "utility", "params": {"min_ways": 2}}).
type PolicyRef struct {
	Name   string          `json:"name"`
	Params json.RawMessage `json:"params,omitempty"`
}

// UnmarshalJSON accepts both the string alias and the object form.
func (p *PolicyRef) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		return json.Unmarshal(data, &p.Name)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	type plain PolicyRef // drop methods to avoid recursion
	return dec.Decode((*plain)(p))
}

// MarshalJSON renders parameterless references back to the compact
// string alias, so legacy files round-trip unchanged.
func (p PolicyRef) MarshalJSON() ([]byte, error) {
	if len(p.Params) == 0 {
		return json.Marshal(p.Name)
	}
	type plain PolicyRef
	return json.Marshal(plain(p))
}

// JobDef declares one job of the mix (possibly replicated).
type JobDef struct {
	// App names a workload-catalog application.
	App string `json:"app"`
	// Role is latency, batch, or stream (default batch).
	Role Role `json:"role,omitempty"`
	// Threads is the requested software-thread count per instance
	// (default: one core's worth). Requests are capped by the
	// application's parallelism and by the instance's slot grant.
	Threads int `json:"threads,omitempty"`
	// Count replicates the job (default 1); replicas get distinct rng
	// seeds and their own placements.
	Count int `json:"count,omitempty"`
	// Loop overrides the role's looping default (batch only: latency
	// jobs never loop, stream jobs always loop).
	Loop *bool `json:"loop,omitempty"`
	// Seed overrides the instance's rng stream name (replicas append
	// their index). Defaults follow the engine's conventions: "single"
	// for a lone job, "fg" for the latency job, "bg"/"bg<i>" for
	// co-runners.
	Seed string `json:"seed,omitempty"`
	// Slots pins the job explicitly (placement policy "explicit" only;
	// requires Count 1).
	Slots []int `json:"slots,omitempty"`
	// Ways bounds the job's LLC replacement mask to [Ways[0], Ways[1])
	// (partition policy "explicit" only; omitted = full cache).
	Ways *[2]int `json:"ways,omitempty"`
}

// PlacementDef selects the slot-assignment policy.
type PlacementDef struct {
	// Policy is pack (default), spread, or explicit.
	Policy string `json:"policy,omitempty"`
}

// PartitionDef selects the LLC policy.
type PartitionDef struct {
	// Policy names any registered partition policy (default shared),
	// either as a plain string or as {"name": ..., "params": {...}}.
	Policy PolicyRef `json:"policy,omitempty"`
}

// MachineDef optionally overrides the platform.
type MachineDef struct {
	// Cores scales the paper's platform to a different core count
	// (0 = the default 4-core prototype).
	Cores int `json:"cores,omitempty"`
}

// Metric names a reported quantity; the metrics block selects which
// sections a scenario report renders.
type Metric string

const (
	MetricSlowdown        Metric = "slowdown"         // per-job slowdown vs alone
	MetricThroughput      Metric = "throughput"       // looping-job iterations/s
	MetricWeightedSpeedup Metric = "weighted-speedup" // Σ alone/together over run-once jobs
	MetricEnergy          Metric = "energy"           // socket and wall joules
	MetricED2             Metric = "ed2"              // socket energy × window²
)

// AllMetrics returns every metric in presentation order (the default
// metrics block).
func AllMetrics() []Metric {
	return []Metric{MetricSlowdown, MetricThroughput, MetricWeightedSpeedup, MetricEnergy, MetricED2}
}

// Scenario is a complete declarative run description: either a
// single-machine job mix (Jobs plus placement/partition blocks) or a
// multi-machine fleet simulation (a Fleet block, run with
// `cachepart fleet run`).
type Scenario struct {
	Name        string       `json:"name"`
	Description string       `json:"description,omitempty"`
	Machine     MachineDef   `json:"machine,omitempty"`
	Placement   PlacementDef `json:"placement,omitempty"`
	Partition   PartitionDef `json:"partition,omitempty"`
	Jobs        []JobDef     `json:"jobs,omitempty"`
	// Metrics selects the report sections (default: all).
	Metrics []Metric `json:"metrics,omitempty"`
	// Fleet, if present, makes this a fleet scenario: N machines under
	// open-loop load with consolidation policies (see internal/fleet).
	// Fleet scenarios carry no job mix of their own — the fleet block
	// declares the load — so Jobs and the placement/partition blocks
	// must be empty.
	Fleet *fleet.Def `json:"fleet,omitempty"`
}

// IsFleet reports whether this is a fleet scenario.
func (s *Scenario) IsFleet() bool { return s.Fleet != nil }

// Parse decodes and validates a JSON scenario. Unknown fields are
// rejected so typos in scenario files fail loudly.
func Parse(data []byte) (*Scenario, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ParseFile reads and parses one scenario file.
func ParseFile(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// loops reports whether a job instance restarts continuously.
func (d *JobDef) loops() bool {
	switch d.role() {
	case RoleStream:
		return true
	case RoleLatency:
		return false
	default:
		return d.Loop == nil || *d.Loop
	}
}

func (d *JobDef) role() Role {
	if d.Role == "" {
		return RoleBatch
	}
	return d.Role
}

func (d *JobDef) count() int {
	if d.Count == 0 {
		return 1
	}
	return d.Count
}

// Validate checks everything that does not depend on the platform:
// known applications, roles, policies and metrics, role/loop
// consistency, replica counts, and the policy-specific shape rules
// (biased and dynamic need exactly one latency job; at least one job
// must terminate or the run never would).
func (s *Scenario) Validate() error {
	if s.Fleet != nil {
		switch {
		case len(s.Jobs) > 0:
			return fmt.Errorf("scenario %q: a fleet scenario declares its load in the fleet block, not jobs", s.Name)
		case s.Placement.Policy != "" || s.Partition.Policy.Name != "":
			return fmt.Errorf("scenario %q: fleet scenarios use the fleet block's policies, not placement/partition", s.Name)
		case len(s.Metrics) > 0:
			return fmt.Errorf("scenario %q: fleet reports have a fixed metrics set; drop the metrics block", s.Name)
		case s.Machine.Cores != 0:
			return fmt.Errorf("scenario %q: set per-machine cores inside the fleet block", s.Name)
		}
		if err := s.Fleet.Validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		return nil
	}
	if len(s.Jobs) == 0 {
		return fmt.Errorf("scenario %q: no jobs", s.Name)
	}
	terminating := 0
	for i := range s.Jobs {
		d := &s.Jobs[i]
		if _, err := workload.ByName(d.App); err != nil {
			return fmt.Errorf("scenario %q job %d: %w", s.Name, i, err)
		}
		switch d.role() {
		case RoleLatency, RoleBatch, RoleStream:
		default:
			return fmt.Errorf("scenario %q job %d (%s): unknown role %q (want latency, batch, or stream)",
				s.Name, i, d.App, d.Role)
		}
		if d.Loop != nil {
			if d.role() == RoleLatency && *d.Loop {
				return fmt.Errorf("scenario %q job %d (%s): a latency job cannot loop", s.Name, i, d.App)
			}
			if d.role() == RoleStream && !*d.Loop {
				return fmt.Errorf("scenario %q job %d (%s): a stream aggressor always loops", s.Name, i, d.App)
			}
		}
		if d.Count < 0 {
			return fmt.Errorf("scenario %q job %d (%s): negative count", s.Name, i, d.App)
		}
		if d.Threads < 0 {
			return fmt.Errorf("scenario %q job %d (%s): negative threads", s.Name, i, d.App)
		}
		if len(d.Slots) > 0 && d.count() != 1 {
			return fmt.Errorf("scenario %q job %d (%s): explicit slots require count 1", s.Name, i, d.App)
		}
		if !validSeed(d.Seed) {
			return fmt.Errorf("scenario %q job %d (%s): seed %q may only contain letters, digits, '.', '_', '-'",
				s.Name, i, d.App, d.Seed)
		}
		if d.Ways != nil && *d.Ways == [2]int{} {
			// The zero range is the snapshot's "no declaration"
			// sentinel, so it must be rejected here or an explicitly
			// declared [0,0) would silently plan as the full cache.
			return fmt.Errorf("scenario %q job %d (%s): way range [0,0) invalid", s.Name, i, d.App)
		}
		if !d.loops() {
			terminating += d.count()
		}
	}
	if terminating == 0 {
		return fmt.Errorf("scenario %q: every job loops; at least one must terminate the run", s.Name)
	}

	pol, err := machine.PlacementPolicyByName(s.Placement.Policy)
	if err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if pol != machine.PlaceExplicit {
		for i := range s.Jobs {
			if len(s.Jobs[i].Slots) > 0 {
				return fmt.Errorf("scenario %q job %d (%s): per-job slots require the explicit placement policy",
					s.Name, i, s.Jobs[i].App)
			}
		}
	}
	// Resolve the partition policy through the registry (catching
	// unknown names and malformed params) and let it validate the mix
	// shape; the platform is not known yet, so Assoc is 0 here and
	// assoc-dependent rules re-check at plan time.
	ppol, err := s.Policy()
	if err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if err := ppol.CheckMix(s.shapeSnapshot(0)); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if s.PartitionName() != PartitionExplicit {
		for i := range s.Jobs {
			if s.Jobs[i].Ways != nil {
				return fmt.Errorf("scenario %q job %d (%s): per-job ways require the explicit partition policy",
					s.Name, i, s.Jobs[i].App)
			}
		}
	}
	for _, m := range s.Metrics {
		switch m {
		case MetricSlowdown, MetricThroughput, MetricWeightedSpeedup, MetricEnergy, MetricED2:
		default:
			return fmt.Errorf("scenario %q: unknown metric %q", s.Name, m)
		}
	}
	if s.Machine.Cores < 0 {
		return fmt.Errorf("scenario %q: negative core count", s.Name)
	}
	return nil
}

// validSeed restricts explicit seeds to a safe alphabet: seeds name
// rng streams and appear in engine memo keys.
func validSeed(seed string) bool {
	for _, r := range seed {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// PartitionName returns the effective policy name (default shared).
func (s *Scenario) PartitionName() string {
	if s.Partition.Policy.Name == "" {
		return PartitionShared
	}
	return s.Partition.Policy.Name
}

// Policy resolves the scenario's partition policy through the
// registry.
func (s *Scenario) Policy() (partition.Policy, error) {
	return partition.New(s.PartitionName(), s.Partition.Policy.Params)
}

// shapeSnapshot renders the declared job shape (replicas expanded) as
// the policy layer's plan-time snapshot. assoc is 0 when the platform
// is not yet known (Validate); Plan re-snapshots with the real
// geometry.
func (s *Scenario) shapeSnapshot(assoc int) *partition.Snapshot {
	snap := &partition.Snapshot{Assoc: assoc}
	for i := range s.Jobs {
		d := &s.Jobs[i]
		jv := partition.JobView{App: d.App, Latency: d.role() == RoleLatency}
		if d.Ways != nil {
			jv.Declared = *d.Ways
		}
		for k := 0; k < d.count(); k++ {
			snap.Jobs = append(snap.Jobs, jv)
		}
	}
	return snap
}

// metrics returns the effective metrics block (default: all).
func (s *Scenario) metrics() []Metric {
	if len(s.Metrics) == 0 {
		return AllMetrics()
	}
	return s.Metrics
}

func (s *Scenario) wantMetric(m Metric) bool {
	for _, x := range s.metrics() {
		if x == m {
			return true
		}
	}
	return false
}
