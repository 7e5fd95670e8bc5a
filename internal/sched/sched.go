// Package sched runs consolidation scenarios on the simulated platform:
// general N-job mixes (MixSpec) pinned to disjoint cores, of which an
// application alone and a foreground/background pair (the paper's
// taskset methodology, §2.1/§5) are the canonical shapes. It owns placement, scaling, and the
// experiment execution engine: a worker pool fans independent
// simulations across CPUs (Options.Parallelism, default GOMAXPROCS)
// while a singleflight-memoized result cache guarantees each distinct
// configuration is simulated exactly once, so experiment drivers can
// sweep large allocation spaces without re-simulating identical
// configurations.
//
// Every simulation is a pure function of its spec: machine.New builds a
// fresh platform per run, and all randomness comes from rng streams
// named by the spec (application, seed label, thread index). Parallel
// execution therefore produces byte-identical results to sequential
// execution — RunBatch returns results in submission order regardless
// of completion order, and sched's tests assert Parallelism 1 and 8
// agree exactly.
package sched

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/prefetch"
	"repro/internal/workload"
)

// DefaultScale is the default instruction-count multiplier applied to
// the catalog's nominal counts. Experiments pass larger values for
// calibration-quality runs; benches pass smaller ones.
const DefaultScale = 2e-3

// QuickScale is the reduced instruction scale smoke runs share — the
// CLI's -quick flag and the scenario/fleet golden tests all use this
// one constant, so goldens stay exactly what a -quick run prints.
// Enough to exercise every policy and placement path in seconds, too
// little for publication-quality aggregates.
const QuickScale = 3e-4

// Options configure a runner. A runner has no platform of its own:
// each spec names the one it runs on (MixSpec.Machine).
type Options struct {
	// Scale multiplies nominal instruction counts (0 = DefaultScale).
	Scale float64
	// DisableCache bypasses the memoized run cache (in-memory and disk).
	DisableCache bool
	// CacheDir, when non-empty, layers a persistent content-addressed
	// result store under the in-memory memo cache: results are written
	// as JSON records keyed by memo key + EngineVersion, and later
	// runners — including other processes — pointing at the same
	// directory skip those simulations entirely. The directory is
	// created if needed; an unusable directory panics at New (callers
	// pass user input through ValidateCacheDir for a graceful error).
	CacheDir string
	// Parallelism bounds every fan-out on the runner (Each): batch
	// simulations and fleet policy episodes alike (0 = GOMAXPROCS,
	// 1 = serial).
	Parallelism int
	// Tracer, if non-nil, receives a span per executed simulation and
	// per batch. Nil (the default) is a strict no-op: the hot path pays
	// one nil check and no timing ever influences results — memo keys,
	// reports, and goldens are identical with tracing on or off.
	Tracer *obs.Tracer
	// WarnLog receives non-fatal operational warnings — today only the
	// once-per-runner notice that persistent-store writes are failing
	// (full disk, revoked permissions). Nil means os.Stderr. Warnings
	// never influence results.
	WarnLog io.Writer
}

func (o Options) scale() float64 {
	if o.Scale > 0 {
		return o.Scale
	}
	return DefaultScale
}

func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Spec is one runnable scenario. MixSpec is the general form — an
// arbitrary N-job mix — and SingleSpec and PairSpec are thin wrappers
// that build the canonical §5 mixes, so every spec type executes
// through one path and equivalent configurations share one memo
// entry. A spec fully determines its simulation — the machine is
// built fresh per run and every rng stream is named by spec fields — so
// running a spec is a pure function and results can be memoized and
// computed on any worker.
type Spec interface {
	// memoKey returns the memoization key, or "" when the run must not
	// be memoized (e.g. a Setup hook closing over external state).
	memoKey(r *Runner) string
	// execute builds a fresh machine and runs the scenario.
	execute(r *Runner) *machine.Result
}

// flight is one memo entry: a simulation that is running or finished.
// Waiters block on done; res is immutable once done is closed.
type flight struct {
	done chan struct{}
	res  *machine.Result
}

// counters accumulates a runner's engine activity.
type counters struct {
	sims      atomic.Uint64 // simulations actually executed
	hits      atomic.Uint64 // memo lookups satisfied without a new run
	diskHits  atomic.Uint64 // results loaded from the persistent store
	busyNanos atomic.Int64  // summed host time inside simulations

	// Per-phase attribution: name -> *phaseAccum. A sync.Map keyed by
	// the handful of distinct phase names a process uses; steady-state
	// increments are a lock-free Load plus two atomic adds.
	phases sync.Map

	// Engine gauges: batch items submitted but not yet claimed, and
	// workers currently inside a simulation. Progress pollers (serve
	// /metrics) read them while batches are in flight.
	queueDepth    atomic.Int64
	activeWorkers atomic.Int64
}

// phaseAccum is one phase's counters.
type phaseAccum struct {
	count atomic.Uint64
	nanos atomic.Int64
}

// Phase names the engine itself accounts. Layers above add their own
// (scenario/fleet phases like "probe", "oracle", "resim", "compile",
// "predict", "episode") through Runner.AddPhase and batch labels.
const (
	// PhaseSim is unlabeled simulation time (runs outside any batch
	// phase).
	PhaseSim = "sim"
	// PhaseMemoWait is time spent joined on another caller's in-flight
	// run — the memo-contention signal.
	PhaseMemoWait = "memo-wait"
	// PhaseDiskLoad / PhaseDiskSave bound persistent-store I/O.
	PhaseDiskLoad = "disk-load"
	PhaseDiskSave = "disk-save"
	// PhaseQueueWait sums, per executed batch item, the delay between
	// batch submission and a worker claiming the item.
	PhaseQueueWait = "queue-wait"
)

func (c *counters) phase(name string) *phaseAccum {
	if p, ok := c.phases.Load(name); ok {
		return p.(*phaseAccum)
	}
	p, _ := c.phases.LoadOrStore(name, &phaseAccum{})
	return p.(*phaseAccum)
}

func (c *counters) addPhase(name string, d time.Duration) {
	p := c.phase(name)
	p.count.Add(1)
	p.nanos.Add(int64(d))
}

// phaseStats snapshots the per-phase accumulators, sorted by name.
func (c *counters) phaseStats() []PhaseStat {
	var out []PhaseStat
	c.phases.Range(func(k, v any) bool {
		p := v.(*phaseAccum)
		out = append(out, PhaseStat{
			Name:    k.(string),
			Count:   p.count.Load(),
			Seconds: time.Duration(p.nanos.Load()).Seconds(),
		})
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MemoShards is the number of lock stripes the in-memory singleflight
// cache is split across. One global mutex serializes every memo lookup
// once fleet oracles, policy episodes, and server runs overlap; keyed
// striping keeps lookups for distinct keys on distinct locks, so the
// memo-wait phase measures genuine singleflight joins rather than lock
// convoy. 32 comfortably exceeds any worker count the engine runs.
const MemoShards = 32

// memoShard is one stripe of the singleflight cache.
type memoShard struct {
	mu    sync.Mutex
	cache map[string]*flight
}

// shardFor maps a memo key to its stripe (inlined FNV-1a: memo keys
// are long and this runs on every cached lookup).
func shardFor(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return h % MemoShards
}

// Runner executes scenarios. The zero value is not usable; call New.
// All methods are safe for concurrent use.
type Runner struct {
	opt   Options
	ctr   counters
	store *diskStore // nil without Options.CacheDir

	warnOnce sync.Once // gates the store-write warning to one line per runner

	shards [MemoShards]memoShard
}

// warnStoreWrite reports a failed persistent-store write, once per
// runner: the first failure explains the situation, repeats of what is
// almost certainly the same full disk or permission problem stay
// quiet, and the run itself continues unaffected.
func (r *Runner) warnStoreWrite(err error) {
	r.warnOnce.Do(func() {
		w := r.opt.WarnLog
		if w == nil {
			w = os.Stderr
		}
		fmt.Fprintf(w, "warning: sched: result store write failed (run continues, results not persisted): %v\n", err)
	})
}

// New builds a runner. An Options.CacheDir that cannot be created
// panics — validate user-supplied paths with ValidateCacheDir first.
func New(opt Options) *Runner {
	r := &Runner{opt: opt}
	for i := range r.shards {
		r.shards[i].cache = make(map[string]*flight)
	}
	if opt.CacheDir != "" && !opt.DisableCache {
		store, err := newDiskStore(opt.CacheDir)
		if err != nil {
			panic(err.Error())
		}
		r.store = store
	}
	return r
}

// ValidateCacheDir checks that dir can serve as a persistent result
// store (creating it if needed), returning a descriptive error for CLI
// front ends to surface before they build a runner.
func ValidateCacheDir(dir string) error {
	_, err := newDiskStore(dir)
	return err
}

// Scale returns the effective instruction scale.
func (r *Runner) Scale() float64 { return r.opt.scale() }

// MachineConfig returns the default platform, machine.Default(), which
// specs without a MixSpec.Machine run on.
func (r *Runner) MachineConfig() machine.Config { return defaultPlatform }

// Parallelism returns the effective worker count.
func (r *Runner) Parallelism() int { return r.opt.parallelism() }

// Tracer returns the runner's tracer — nil when tracing is off, which
// every obs call site treats as a no-op.
func (r *Runner) Tracer() *obs.Tracer { return r.opt.Tracer }

// AddPhase attributes an already-measured duration to a named phase in
// the engine's per-phase accounting. Layers above the engine (scenario
// compile, fleet prediction, policy episodes) use it so their
// non-simulation work shows up next to simulation phases in Stats and
// envelopes. Timing recorded here never feeds back into results.
func (r *Runner) AddPhase(name string, d time.Duration) {
	r.ctr.addPhase(name, d)
}

// Run executes one spec through the singleflight memo cache: the first
// request for a key runs the simulation, concurrent requests for the
// same key wait for that one in-flight run, and later requests return
// the cached result. Non-memoizable specs always execute.
func (r *Runner) Run(s Spec) *machine.Result {
	return r.run(s, runCtx{})
}

// runCtx carries batch-level observability context down to the point
// a simulation executes: which phase it accounts under and which span
// its trace record nests in. The zero value (direct Run calls) means
// the generic "sim" phase and a root-level span.
type runCtx struct {
	phase  string
	parent obs.SpanID
}

func (r *Runner) run(s Spec, rc runCtx) *machine.Result {
	key := ""
	if !r.opt.DisableCache {
		key = s.memoKey(r)
	}
	if key == "" {
		return r.measure(s, rc)
	}
	sh := &r.shards[shardFor(key)]
	for {
		sh.mu.Lock()
		if f, ok := sh.cache[key]; ok {
			sh.mu.Unlock()
			r.ctr.hits.Add(1)
			t0 := time.Now()
			<-f.done
			r.ctr.addPhase(PhaseMemoWait, time.Since(t0))
			if f.res != nil {
				return f.res
			}
			// The run we joined panicked and its entry was evicted;
			// retry so this caller re-executes and observes the panic
			// itself rather than returning a nil result.
			continue
		}
		f := &flight{done: make(chan struct{})}
		sh.cache[key] = f
		sh.mu.Unlock()
		return r.runFlight(sh, key, f, s, rc)
	}
}

// runFlight executes the simulation owning a flight entry. If the spec
// panics (e.g. an invalid partition — an experiment-construction bug),
// the poisoned entry is evicted before waiters are released, so later
// requests for the key re-execute and panic too instead of
// deadlocking on a never-closed flight.
//
// The persistent store sits exactly here — under the in-memory map,
// inside the flight — so each key is consulted and written at most once
// per process, and concurrent requests for a key share one disk read
// the same way they share one simulation.
func (r *Runner) runFlight(sh *memoShard, key string, f *flight, s Spec, rc runCtx) *machine.Result {
	defer func() {
		if f.res == nil {
			sh.mu.Lock()
			delete(sh.cache, key)
			sh.mu.Unlock()
		}
		close(f.done)
	}()
	if r.store != nil {
		t0 := time.Now()
		res, ok := r.store.load(key)
		r.ctr.addPhase(PhaseDiskLoad, time.Since(t0))
		if ok {
			r.ctr.diskHits.Add(1)
			f.res = res
			return f.res
		}
	}
	f.res = r.measure(s, rc)
	if r.store != nil {
		t0 := time.Now()
		if err := r.store.save(key, f.res); err != nil {
			r.warnStoreWrite(err)
		}
		r.ctr.addPhase(PhaseDiskSave, time.Since(t0))
	}
	return f.res
}

// measure executes a spec and accounts for it in the runner stats.
// The simulation is timed exactly once; the same duration feeds the
// busy counter, the phase accumulator, and the trace record, so trace
// totals and Stats.Phases agree to the nanosecond.
func (r *Runner) measure(s Spec, rc runCtx) *machine.Result {
	t0 := time.Now()
	res := s.execute(r)
	d := time.Since(t0)
	r.ctr.busyNanos.Add(int64(d))
	r.ctr.sims.Add(1)
	phase := rc.phase
	if phase == "" {
		phase = PhaseSim
	}
	r.ctr.addPhase(phase, d)
	if tr := r.opt.Tracer; tr != nil {
		tr.Record("simulate", rc.parent, t0, d,
			obs.String("phase", phase), obs.String("apps", resultApps(res)))
	}
	return res
}

// resultApps names a result's jobs for span attribution ("mcf+ferret").
func resultApps(res *machine.Result) string {
	if res == nil || len(res.Jobs) == 0 {
		return ""
	}
	var sb strings.Builder
	for i := range res.Jobs {
		if i > 0 {
			sb.WriteByte('+')
		}
		sb.WriteString(res.Jobs[i].Name)
	}
	return sb.String()
}

// SingleSpec describes an application running alone. It is a thin
// wrapper over the general MixSpec: a one-job mix with pack placement
// from slot 0 and the first Ways LLC ways. Run directly as a Spec it
// builds on the default platform; Mix builds it on any other.
type SingleSpec struct {
	App     *workload.Profile
	Threads int // capped by the profile's MaxThreads
	Ways    int // LLC ways allocated to it (0 = all 12)
	// Prefetch overrides the platform prefetcher configuration.
	Prefetch *prefetch.Config
}

// Mix builds the scenario this spec denotes on the given platform.
// Threads fill both hyperthreads of each core before the next core (the
// paper's assignment order).
func (s SingleSpec) Mix(cfg machine.Config) MixSpec {
	threads := CapThreads(s.App, s.Threads)
	slots := make([]int, threads)
	for i := range slots {
		slots[i] = i // slot order = HT0/HT1 of core 0, then core 1, ...
	}
	if s.Ways < 0 || s.Ways > cfg.Hier.LLC.Assoc {
		panic(fmt.Sprintf("sched: invalid single allocation of %d ways", s.Ways))
	}
	return MixSpec{
		Jobs: []MixJob{{
			App: s.App, Threads: threads, Slots: slots,
			Seed: "single", WayLim: s.Ways,
		}},
		Machine:  Platform(cfg),
		Prefetch: s.Prefetch,
	}
}

func (s SingleSpec) memoKey(r *Runner) string { return s.Mix(defaultPlatform).memoKey(r) }

func (s SingleSpec) execute(r *Runner) *machine.Result { return s.Mix(defaultPlatform).execute(r) }

// PairMode selects how a foreground/background pair is run.
type PairMode int

const (
	// BackgroundLoop restarts the background job continuously; the run
	// ends when the foreground completes (Figs 8, 9, 12, 13).
	BackgroundLoop PairMode = iota
	// BothOnce runs both jobs exactly once; the run ends when both have
	// completed (Figs 10, 11 energy/throughput vs sequential).
	BothOnce
)

// PairSpec describes a co-scheduled foreground/background pair. The
// foreground is pinned to cores 0-1 (4 hyperthreads), the background to
// cores 2-3, matching §5's placement. Run directly as a Spec it builds
// on the default platform; Mix builds it on any other.
type PairSpec struct {
	Fg, Bg *workload.Profile
	// FgWays/BgWays give each side's LLC allocation. Both zero = fully
	// shared cache (no partitioning). Non-zero values must sum to at
	// most the LLC associativity; the masks are disjoint: the
	// foreground gets the low ways, the background the high ways.
	FgWays, BgWays int
	Mode           PairMode
	// Setup, if non-nil, runs after jobs are scheduled and before the
	// run starts (samplers and decision loops hook in here). Runs with
	// a Setup hook are not memoized (the hook may close over external
	// state), but they may still be batched: each batched run gets its
	// own machine, and RunBatch's completion barrier makes the hook's
	// writes visible to the caller.
	Setup func(m *machine.Machine, fg, bg *machine.Job)
	// Prefetch overrides the platform prefetcher configuration.
	Prefetch *prefetch.Config
}

// Mix builds the scenario this spec denotes on the given platform: a
// two-job pack-placed mix, the foreground in the low ways and the
// background in the high ways when a static split is given.
func (s PairSpec) Mix(cfg machine.Config) MixSpec {
	assoc := cfg.Hier.LLC.Assoc
	var fgFirst, fgLim, bgFirst, bgLim int
	switch {
	case s.FgWays == 0 && s.BgWays == 0:
		// Fully shared: both sides may replace anywhere.
	case s.FgWays > 0 && s.BgWays > 0 && s.FgWays+s.BgWays <= assoc:
		fgFirst, fgLim = 0, s.FgWays
		bgFirst, bgLim = assoc-s.BgWays, assoc
	default:
		panic(fmt.Sprintf("sched: invalid pair partition %d+%d ways of %d",
			s.FgWays, s.BgWays, assoc))
	}
	mix := MixSpec{
		Jobs: []MixJob{
			{App: s.Fg, Threads: CapThreads(s.Fg, 4), Slots: cfg.SlotsForCores(0, 1),
				Seed: "fg", WayFirst: fgFirst, WayLim: fgLim},
			{App: s.Bg, Threads: CapThreads(s.Bg, 4), Slots: cfg.SlotsForCores(2, 3),
				Background: s.Mode == BackgroundLoop,
				Seed:       "bg", WayFirst: bgFirst, WayLim: bgLim},
		},
		Machine:  Platform(cfg),
		Prefetch: s.Prefetch,
	}
	if s.Setup != nil {
		setup := s.Setup
		mix.Setup = func(m *machine.Machine, jobs []*machine.Job) {
			setup(m, jobs[0], jobs[1])
		}
	}
	return mix
}

func (s PairSpec) memoKey(r *Runner) string { return s.Mix(defaultPlatform).memoKey(r) }

func (s PairSpec) execute(r *Runner) *machine.Result { return s.Mix(defaultPlatform).execute(r) }

// AloneHalfSpec is the foreground baseline of §5.1: the application
// alone on 2 cores / 4 hyperthreads with the full LLC.
func AloneHalfSpec(app *workload.Profile) SingleSpec {
	return SingleSpec{App: app, Threads: 4}
}

// AloneWholeSpec is the sequential baseline of §5.3: the application
// alone on the whole machine (8 hyperthreads, full LLC).
func AloneWholeSpec(app *workload.Profile) SingleSpec {
	return SingleSpec{App: app, Threads: 8}
}

// CapThreads returns want clamped to [1, p.MaxThreads] — the rule every
// spec applies to requested thread counts. Exported so experiment
// drivers planning batch sweeps derive the same operating points the
// engine will actually run.
func CapThreads(p *workload.Profile, want int) int {
	if want < 1 {
		want = 1
	}
	if want > p.MaxThreads {
		return p.MaxThreads
	}
	return want
}

// pfKey renders a prefetch override for memo keys. It is called per
// submitted spec (RunBatch dedup), so it avoids fmt: the output is
// the same "truefalse..." concatenation Sprintf("%v...") produced.
func pfKey(p *prefetch.Config) string {
	if p == nil {
		return "def"
	}
	var sb strings.Builder
	sb.Grow(20)
	sb.WriteString(strconv.FormatBool(p.DCUIP))
	sb.WriteString(strconv.FormatBool(p.DCUStreamer))
	sb.WriteString(strconv.FormatBool(p.MLCSpatial))
	sb.WriteString(strconv.FormatBool(p.MLCStreamer))
	return sb.String()
}
