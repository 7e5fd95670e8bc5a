package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// SchemaVersion identifies the report-envelope layout. Bump it when
// Envelope gains, loses, or re-types a field; consumers pin the version
// they understand. Version 2 added the fleet fidelity echo; version 3
// added the stats phases breakdown; version 4 added the events stats
// block for fleet timelines.
const SchemaVersion = 4

// Spec kinds an envelope can carry.
const (
	KindScenario = "scenario" // single-machine job mix
	KindFleet    = "fleet"    // multi-machine consolidation run
)

// RunConfig is the one options type every front end decodes into: CLI
// flags (scenario run, fleet run, serve) and server request bodies all
// produce a RunConfig, so a submission means the same thing everywhere.
//
// The first four fields configure the engine and are fixed when a
// Session is built; the rest override a spec per run and may differ per
// submission on a shared session.
type RunConfig struct {
	// Scale multiplies the catalog's nominal instruction counts
	// (0 = sched.DefaultScale, unless Quick).
	Scale float64 `json:"scale,omitempty"`
	// Quick selects the reduced smoke-run scale (sched.QuickScale) when
	// Scale is 0.
	Quick bool `json:"quick,omitempty"`
	// Parallelism is the session's one CPU budget: simulation batches
	// and fleet policy episodes each fan out over at most this many
	// workers (0 = GOMAXPROCS, 1 = serial).
	Parallelism int `json:"parallelism,omitempty"`
	// CacheDir, when non-empty, layers the persistent content-addressed
	// result store under the in-memory memo (see sched.Options.CacheDir).
	CacheDir string `json:"cache_dir,omitempty"`

	// Policy overrides a single-machine scenario's partition policy
	// (any registered name; see `cachepart policies`).
	Policy string `json:"policy,omitempty"`
	// Partition overrides a fleet scenario's partition mode. The file's
	// partition_params belong to the file's policy and are cleared.
	Partition string `json:"partition,omitempty"`
	// Policies overrides a fleet scenario's consolidation-policy list.
	Policies []string `json:"policies,omitempty"`
	// Machines overrides a fleet scenario's pool size.
	Machines int `json:"machines,omitempty"`
	// Fidelity overrides a fleet scenario's oracle tier: exact, fast,
	// or auto ("" keeps the file's).
	Fidelity string `json:"fidelity,omitempty"`
	// FastMargin overrides a fleet scenario's auto screening band
	// around slowdown_limit (0 keeps the file's).
	FastMargin float64 `json:"fast_margin,omitempty"`
}

// Validate checks the config's standalone invariants, including that
// CacheDir (if set) is usable as a persistent store. It returns a
// descriptive one-line error suitable for CLI and HTTP surfaces.
func (c RunConfig) Validate() error {
	switch {
	case c.Scale < 0:
		return fmt.Errorf("core: scale %g is negative", c.Scale)
	case c.Parallelism < 0:
		return fmt.Errorf("core: parallelism %d is negative", c.Parallelism)
	case c.Machines < 0:
		return fmt.Errorf("core: machines %d is negative", c.Machines)
	}
	for _, p := range c.Policies {
		if strings.TrimSpace(p) == "" {
			return fmt.Errorf("core: empty policy name in policies list")
		}
	}
	if _, err := fleet.ParseFidelity(c.Fidelity); err != nil {
		return err
	}
	if c.FastMargin < 0 {
		return fmt.Errorf("core: fast_margin %g is negative", c.FastMargin)
	}
	if c.CacheDir != "" {
		return sched.ValidateCacheDir(c.CacheDir)
	}
	return nil
}

// EffectiveScale resolves Scale/Quick the way every CLI front end does:
// an explicit scale wins, Quick selects the smoke scale, zero means the
// engine default.
func (c RunConfig) EffectiveScale() float64 {
	if c.Scale == 0 && c.Quick {
		return sched.QuickScale
	}
	return c.Scale
}

// PerRunOnly reports an error when an engine-level field is set —
// the check a shared session's front end (the server) applies to
// per-submission configs, whose engine was fixed at session start.
func (c RunConfig) PerRunOnly() error {
	switch {
	case c.Scale != 0:
		return fmt.Errorf("core: scale is fixed when the session starts")
	case c.Quick:
		return fmt.Errorf("core: quick is fixed when the session starts")
	case c.Parallelism != 0:
		return fmt.Errorf("core: parallelism is fixed when the session starts")
	case c.CacheDir != "":
		return fmt.Errorf("core: cache_dir is fixed when the session starts")
	}
	return nil
}

// Session is the single programmatic entrypoint for running specs: it
// owns one long-lived sched.Runner, so every run submitted through it —
// from any goroutine — deduplicates against the same warm in-memory
// memo and, with CacheDir, the same persistent store. `scenario run`,
// `fleet run`, and the HTTP server are all thin front ends over it.
type Session struct {
	cfg RunConfig
	r   *sched.Runner
	tr  *obs.Tracer // nil = tracing off
}

// NewSession validates the config and builds the session's engine. An
// unusable CacheDir is a returned error, not a panic.
func NewSession(cfg RunConfig) (*Session, error) {
	return NewSessionWith(cfg, nil)
}

// NewSessionWith is NewSession with a tracer attached to the engine:
// every run records a span tree under a root "run" span. A nil tracer
// is tracing off — zero overhead beyond a nil check, and results are
// byte-identical either way.
func NewSessionWith(cfg RunConfig, tr *obs.Tracer) (*Session, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Session{cfg: cfg, tr: tr, r: sched.New(sched.Options{
		Scale:       cfg.EffectiveScale(),
		Parallelism: cfg.Parallelism,
		CacheDir:    cfg.CacheDir,
		Tracer:      tr,
	})}, nil
}

// Tracer returns the session's tracer, nil when tracing is off.
func (s *Session) Tracer() *obs.Tracer { return s.tr }

// Config returns the session's engine configuration.
func (s *Session) Config() RunConfig { return s.cfg }

// Runner exposes the underlying scheduler for advanced callers
// (experiment drivers, custom placements).
func (s *Session) Runner() *sched.Runner { return s.r }

// Stats snapshots the engine counters; safe to call concurrently with
// in-flight runs (progress polling).
func (s *Session) Stats() sched.Stats { return s.r.Stats() }

// EngineStats is the per-run engine activity recorded in an envelope:
// the counter delta around the run. On a session running submissions
// concurrently the delta includes any overlapping runs' activity —
// submit sequentially for exact per-run accounting.
type EngineStats struct {
	Parallelism int    `json:"parallelism"`
	Simulations uint64 `json:"simulations"`
	MemoHits    uint64 `json:"memo_hits"`
	DiskHits    uint64 `json:"disk_hits"`
	// Phases attributes the run's engine time to named phases (probe,
	// oracle, resim, compile, episode, queue-wait, ...). Seconds are
	// wall-clock and therefore not byte-deterministic — consumers that
	// compare envelopes compare Report (always byte-stable) or strip
	// the timing first. Counts are deterministic.
	Phases []PhaseStat `json:"phases,omitempty"`
}

// PhaseStat is one phase's share of a run's engine activity.
type PhaseStat struct {
	Name    string  `json:"name"`
	Count   uint64  `json:"count"`
	Seconds float64 `json:"seconds"`
}

// Envelope is the versioned report wrapper every front end emits:
// `scenario run -json` and `fleet run -json` print it verbatim, and the
// server's report endpoint returns the same bytes. Report holds the
// exact text a plain CLI run prints (before the engine footer), so
// HTTP and CLI consumers can compare reports byte for byte.
type Envelope struct {
	SchemaVersion int    `json:"schema_version"`
	EngineVersion string `json:"engine_version"`
	Kind          string `json:"kind"`
	Name          string `json:"name"`
	// Fidelity echoes a fleet run's effective oracle tier (exact, fast,
	// or auto); empty for single-machine scenarios.
	Fidelity string `json:"fidelity,omitempty"`
	// Events tallies a fleet scenario's timeline by kind; nil when the
	// scenario has none (and always for single-machine scenarios).
	Events *EventStats `json:"events,omitempty"`
	Stats  EngineStats `json:"stats"`
	Report string      `json:"report"`
}

// EventStats is the envelope's per-kind tally of a fleet timeline.
type EventStats struct {
	Total         int `json:"total"`
	Failures      int `json:"failures,omitempty"`
	Drains        int `json:"drains,omitempty"`
	Ups           int `json:"ups,omitempty"`
	BatchArrivals int `json:"batch_arrivals,omitempty"`
	BatchCancels  int `json:"batch_cancels,omitempty"`
	LoadScales    int `json:"load_scales,omitempty"`
}

// JSON renders the envelope in its canonical wire form: two-space
// indented, field order fixed by the struct, trailing newline.
func (e *Envelope) JSON() []byte {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		panic("core: envelope marshal: " + err.Error()) // no unmarshalable fields
	}
	return append(b, '\n')
}

// RunResult pairs an envelope with the raw counter snapshots and host
// time the CLI footer needs.
type RunResult struct {
	Envelope *Envelope
	// Before/After are the session counters around the run.
	Before, After sched.Stats
	// WallSeconds is host time spent inside the run.
	WallSeconds float64
	// Span is the run's root span in the session tracer (0 when
	// tracing is off); the server's per-run trace endpoint exports the
	// subtree under it.
	Span obs.SpanID
}

// ApplyOverrides rewrites a parsed spec with the config's per-run
// override fields, re-validating when a fleet definition changed.
// Overrides that do not apply to the spec's kind are errors: a config
// meant for the other kind is a caller bug, not a no-op.
func ApplyOverrides(sc *scenario.Scenario, cfg RunConfig) error {
	if sc.IsFleet() {
		if cfg.Policy != "" {
			return fmt.Errorf("core: the policy override applies to single-machine scenarios (use partition for fleets)")
		}
		if len(cfg.Policies) > 0 {
			sc.Fleet.Policies = nil
			for _, p := range cfg.Policies {
				sc.Fleet.Policies = append(sc.Fleet.Policies, fleet.PolicyName(strings.TrimSpace(p)))
			}
		}
		if cfg.Partition != "" {
			sc.Fleet.Partition = fleet.PartitionMode(cfg.Partition)
			// The file's params belong to the file's policy; an override
			// mode must not inherit them.
			sc.Fleet.PartitionParams = nil
		}
		if cfg.Machines != 0 {
			sc.Fleet.Machines = cfg.Machines
		}
		if cfg.Fidelity != "" {
			sc.Fleet.Fidelity = fleet.Fidelity(cfg.Fidelity)
		}
		if cfg.FastMargin != 0 {
			sc.Fleet.FastMargin = cfg.FastMargin
		}
		if len(cfg.Policies) > 0 || cfg.Partition != "" || cfg.Machines != 0 ||
			cfg.Fidelity != "" || cfg.FastMargin != 0 {
			return sc.Validate()
		}
		return nil
	}
	if cfg.Partition != "" || len(cfg.Policies) > 0 || cfg.Machines != 0 ||
		cfg.Fidelity != "" || cfg.FastMargin != 0 {
		return fmt.Errorf("core: partition/policies/machines/fidelity overrides apply to fleet scenarios")
	}
	if cfg.Policy != "" {
		sc.Partition.Policy = scenario.PolicyRef{Name: cfg.Policy}
	}
	return nil
}

// RunSpec parses raw scenario/fleet JSON and runs it; parse errors are
// the same one-line texts the CLI surfaces for a bad file.
func (s *Session) RunSpec(data []byte, cfg RunConfig) (*RunResult, error) {
	sc, err := scenario.Parse(data)
	if err != nil {
		return nil, err
	}
	return s.RunScenario(sc, cfg)
}

// RunScenario executes a parsed spec of either kind — compile, run,
// report — and wraps the outcome in a versioned envelope. Only cfg's
// per-run override fields are read here; engine fields were consumed
// when the session was built. Safe for concurrent use; concurrent runs
// share the memo cache (see EngineStats for the accounting caveat).
func (s *Session) RunScenario(sc *scenario.Scenario, cfg RunConfig) (*RunResult, error) {
	if err := ApplyOverrides(sc, cfg); err != nil {
		return nil, err
	}
	before := s.r.Stats()
	t0 := time.Now()
	kind := KindScenario
	var fidelity string
	var events *EventStats
	if sc.IsFleet() {
		kind = KindFleet
		fidelity = string(sc.Fleet.EffectiveFidelity())
		if len(sc.Fleet.Events) > 0 {
			c := sc.Fleet.EventCounts()
			events = &EventStats{
				Total: c.Total, Failures: c.Failures, Drains: c.Drains, Ups: c.Ups,
				BatchArrivals: c.BatchArrivals, BatchCancels: c.BatchCancels,
				LoadScales: c.LoadScales,
			}
		}
	}
	attrs := []obs.Attr{obs.String("kind", kind), obs.String("name", sc.Name)}
	if fidelity != "" {
		attrs = append(attrs, obs.String("fidelity", fidelity))
	}
	span := s.tr.Start("run", 0, attrs...)
	var report string
	if sc.IsFleet() {
		rep, err := fleet.Run(s.r, sc.Name, sc.Fleet, span.ID())
		if err != nil {
			span.End(obs.String("error", err.Error()))
			return nil, err
		}
		var sb strings.Builder
		if sc.Description != "" {
			// The description leads the report, exactly as the fleet CLI
			// has always printed it.
			sb.WriteString(sc.Description)
			sb.WriteByte('\n')
		}
		sb.WriteString(rep.String())
		report = sb.String()
	} else {
		rep, err := scenario.Run(s.r, sc, span.ID())
		if err != nil {
			span.End(obs.String("error", err.Error()))
			return nil, err
		}
		report = rep.String()
	}
	after := s.r.Stats()
	delta := after.Delta(before)
	span.End(
		obs.Int64("sims", int64(delta.Simulations)),
		obs.Int64("memo_hits", int64(delta.MemoHits)),
		obs.Int64("disk_hits", int64(delta.DiskHits)))
	return &RunResult{
		Envelope: &Envelope{
			SchemaVersion: SchemaVersion,
			EngineVersion: sched.EngineVersion,
			Kind:          kind,
			Name:          sc.Name,
			Fidelity:      fidelity,
			Events:        events,
			Stats: EngineStats{
				Parallelism: delta.Parallelism,
				Simulations: delta.Simulations,
				MemoHits:    delta.MemoHits,
				DiskHits:    delta.DiskHits,
				Phases:      enginePhases(delta.Phases),
			},
			Report: report,
		},
		Before:      before,
		After:       after,
		WallSeconds: time.Since(t0).Seconds(),
		Span:        span.ID(),
	}, nil
}

// enginePhases converts the engine's phase snapshot to envelope form.
func enginePhases(ph []sched.PhaseStat) []PhaseStat {
	if len(ph) == 0 {
		return nil
	}
	out := make([]PhaseStat, len(ph))
	for i, p := range ph {
		out[i] = PhaseStat{Name: p.Name, Count: p.Count, Seconds: p.Seconds}
	}
	return out
}
