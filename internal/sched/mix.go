package sched

import (
	"fmt"
	"strconv"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/prefetch"
	"repro/internal/workload"
)

// MixJob is one job of a general N-job mix: an application instance
// with a validated slot placement, an LLC way range, and a role flag.
// The scenario layer compiles declarative job descriptions down to
// these; SingleSpec and PairSpec build them internally.
type MixJob struct {
	App *workload.Profile
	// Threads is the requested software-thread count; execution caps it
	// by the profile's parallelism (CapThreads).
	Threads int
	// Slots is the pinned hardware-thread slot list, in assignment
	// order. It must hold the capped thread count; extra entries extend
	// the reserved taskset region (bandwidth QoS follows it).
	Slots []int
	// Background marks a continuously-restarting job; at least one job
	// of a mix must be foreground or the run would never terminate.
	Background bool
	// Seed differentiates otherwise-identical job instances: it names
	// the job's rng streams, so two copies of an application with
	// different seeds execute distinct (but deterministic) traces.
	Seed string
	// WayFirst/WayLim bound the job's LLC replacement mask to ways
	// [WayFirst, WayLim). Both zero = the full cache. A non-empty range
	// must satisfy 0 <= WayFirst < WayLim <= associativity.
	WayFirst, WayLim int
}

// MixSpec is the general runnable scenario: N jobs on one platform.
// Every other spec type reduces to a MixSpec — the pair shape of §5 is
// a two-job mix with pack placement, a foreground with several
// background peers (§6.3) a (1+N)-job one — so
// the engine has exactly one execution path, and equivalent
// configurations deduplicate in the memo cache regardless of which
// spec type described them.
type MixSpec struct {
	Jobs []MixJob
	// Machine is the platform the mix runs on; nil means
	// machine.Default(). It is the only place a platform is named (the
	// runner has none), so the memo key always sees it. Builders set it
	// through Platform.
	Machine *machine.Config
	// Prefetch overrides the platform prefetcher configuration.
	Prefetch *prefetch.Config
	// Setup, if non-nil, runs after jobs are scheduled and before the
	// run starts (online partition policies attach their decision loop
	// here; profiling runs attach shadow monitors). Mixes with a Setup
	// hook are not memoized unless PolicyKey or ProbeKey is also set.
	Setup func(m *machine.Machine, jobs []*machine.Job)
	// PolicyKey names the online partition policy the Setup hook
	// attaches (partition.RunKey: policy name, canonical params, and
	// sampling interval). Setting it declares the hook a pure function
	// of the mix and this key, which makes the run memoizable — and
	// keys it so cached results can never alias across policies or
	// parameterizations. Leave empty for hooks that close over external
	// state (samplers, controller out-params): those runs always
	// execute.
	PolicyKey string
	// ProbeKey names the shadow monitor the Setup hook attaches
	// (model.ProbeKey: monitor kind, model version, sampling stride).
	// Like PolicyKey it declares the hook pure and makes the run
	// memoizable, with a key segment that guarantees probing runs never
	// alias unprobed runs — or runs probed under a different model
	// version — in the memo or the persistent store.
	ProbeKey string
}

// defaultPlatform is machine.Default(), built once: specs without a
// Machine run on it, and keys compare against it.
var defaultPlatform = machine.Default()

// Platform returns the MixSpec.Machine value naming cfg: nil for the
// default platform, so its specs keep the short "def" key and skip the
// copy, and a private copy of any other configuration.
func Platform(cfg machine.Config) *machine.Config {
	if cfg == defaultPlatform {
		return nil
	}
	c := cfg
	return &c
}

// memoKey renders the canonical key: every input the execution depends
// on — platform, scale, prefetchers, and each job's identity, capped
// threads, placement, role, seed, and way range. Specs that reduce to
// the same mix therefore share one cache entry. The default platform
// keys as "def" whether Machine is nil or names it; any other platform
// renders every field of its configuration (all plain values, so the
// rendering is deterministic).
//
// Keys are built with strconv appends rather than fmt: RunBatch renders
// one per submitted spec before any simulation runs, so key
// construction sits on the engine's warm path. The rendered text is
// unchanged from the fmt version (floats use the same shortest
// round-trip form as %g, bools the same true/false as %v); only the
// uncommon non-default platform branch still pays for reflection.
func (s MixSpec) memoKey(r *Runner) string {
	if s.Setup != nil && s.PolicyKey == "" && s.ProbeKey == "" {
		return ""
	}
	buf := make([]byte, 0, 192)
	buf = append(buf, "mix|s"...)
	buf = strconv.AppendFloat(buf, r.opt.scale(), 'g', -1, 64)
	buf = append(buf, "|pf"...)
	buf = append(buf, pfKey(s.Prefetch)...)
	buf = append(buf, "|m"...)
	if s.Machine != nil && *s.Machine != defaultPlatform {
		buf = fmt.Appendf(buf, "%+v", *s.Machine)
	} else {
		buf = append(buf, "def"...)
	}
	for _, j := range s.Jobs {
		buf = append(buf, '|')
		buf = append(buf, j.App.Name...)
		buf = append(buf, "|t"...)
		buf = strconv.AppendInt(buf, int64(CapThreads(j.App, j.Threads)), 10)
		buf = append(buf, "|sl"...)
		for k, slot := range j.Slots {
			if k > 0 {
				buf = append(buf, '.')
			}
			buf = strconv.AppendInt(buf, int64(slot), 10)
		}
		// The seed is the one free-form field; length-prefix it so a
		// seed containing the key grammar cannot forge another mix's
		// key and poison the singleflight cache.
		buf = append(buf, "|bg"...)
		buf = strconv.AppendBool(buf, j.Background)
		buf = append(buf, "|sd"...)
		buf = strconv.AppendInt(buf, int64(len(j.Seed)), 10)
		buf = append(buf, ':')
		buf = append(buf, j.Seed...)
		buf = append(buf, "|w"...)
		buf = strconv.AppendInt(buf, int64(j.WayFirst), 10)
		buf = append(buf, '-')
		buf = strconv.AppendInt(buf, int64(j.WayLim), 10)
	}
	if s.PolicyKey != "" {
		// Length-prefixed like seeds: policy params are free-form, and
		// a forged params string must not be able to alias another key.
		buf = append(buf, "|pol"...)
		buf = strconv.AppendInt(buf, int64(len(s.PolicyKey)), 10)
		buf = append(buf, ':')
		buf = append(buf, s.PolicyKey...)
	}
	if s.ProbeKey != "" {
		buf = append(buf, "|prb"...)
		buf = strconv.AppendInt(buf, int64(len(s.ProbeKey)), 10)
		buf = append(buf, ':')
		buf = append(buf, s.ProbeKey...)
	}
	return string(buf)
}

// config returns the platform this mix runs on.
func (s MixSpec) config() machine.Config {
	cfg := defaultPlatform
	if s.Machine != nil {
		cfg = *s.Machine
	}
	if s.Prefetch != nil {
		cfg.Prefetch = *s.Prefetch
	}
	return cfg
}

// wayMask returns the job's LLC replacement mask, or ok=false for the
// full cache. Invalid ranges panic — mixes are validated at
// construction (scenario compile, legacy wrappers), so this is an
// engine-construction bug.
func (j MixJob) wayMask(assoc int) (cache.WayMask, bool) {
	if j.WayFirst == 0 && j.WayLim == 0 {
		return 0, false
	}
	if j.WayFirst < 0 || j.WayFirst >= j.WayLim || j.WayLim > assoc {
		panic(fmt.Sprintf("sched: job %s invalid way range [%d,%d) of %d",
			j.App.Name, j.WayFirst, j.WayLim, assoc))
	}
	return cache.MaskRange(j.WayFirst, j.WayLim), true
}

func (s MixSpec) execute(r *Runner) *machine.Result {
	if len(s.Jobs) == 0 {
		panic("sched: empty mix")
	}
	cfg := s.config()
	m := machine.New(cfg)

	jobs := make([]*machine.Job, len(s.Jobs))
	for i, j := range s.Jobs {
		job, err := m.AddJobChecked(machine.JobSpec{
			Profile:    j.App,
			Threads:    CapThreads(j.App, j.Threads),
			Slots:      j.Slots,
			Background: j.Background,
			Scale:      r.opt.scale(),
			Seed:       j.Seed,
		})
		if err != nil {
			panic("sched: " + err.Error())
		}
		jobs[i] = job
	}

	assoc := cfg.Hier.LLC.Assoc
	for i, j := range s.Jobs {
		if mask, ok := j.wayMask(assoc); ok {
			for _, c := range jobs[i].Cores() {
				m.Hierarchy().SetWayMask(c, mask)
			}
		}
	}

	if s.Setup != nil {
		s.Setup(m, jobs)
	}
	return m.Run()
}

// RunMix executes a general N-job mix. Results are memoized when no
// Setup hook is given.
func (r *Runner) RunMix(s MixSpec) *machine.Result {
	return r.Run(s)
}

// Key exposes the canonical memo key ("" when the mix is not
// memoizable) so callers above the engine — the scenario layer's
// determinism tests, cache inspection tooling — can observe dedup
// identity without running anything.
func (s MixSpec) Key(r *Runner) string { return s.memoKey(r) }
