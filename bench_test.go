package repro

// One benchmark per table and figure of the paper's evaluation. Each
// benchmark regenerates its experiment at a reduced scope/scale (the
// CLI's `cachepart exp -id <fig>` runs the full version) and reports
// the experiment's key aggregate as a custom metric, so `go test
// -bench=.` doubles as a regression harness for the reproduced shapes.

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/loadgen"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchScale keeps each iteration affordable; aggregates at this scale
// are noisier than the EXPERIMENTS.md runs but preserve orderings.
const benchScale = 5e-4

func quickCtx() *experiments.Context {
	return experiments.NewQuickContext(sched.Options{Scale: benchScale})
}

func BenchmarkFig1ThreadScalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := quickCtx()
		t := ctx.Fig1ThreadScalability()
		if len(t.Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkTable1Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := quickCtx()
		_, classes := ctx.Table1Scalability()
		if classes["429.mcf"] != experiments.ScalLow {
			b.Fatal("mcf not classified sequential/low")
		}
	}
}

func BenchmarkFig2LLCSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := quickCtx()
		if len(ctx.Fig2LLCSensitivity().Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkTable2LLCUtility(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		ctx := quickCtx()
		res := ctx.Table2LLCUtility()
		frac = res.FracUnder3MB
	}
	b.ReportMetric(frac*100, "%apps<=3MB")
}

func BenchmarkFig3Prefetchers(b *testing.B) {
	var gems float64
	for i := 0; i < b.N; i++ {
		ctx := quickCtx()
		gems = ctx.PrefetchSensitivity(workload.MustByName("459.GemsFDTD"))
	}
	b.ReportMetric(gems, "GemsFDTD-on/off")
}

func BenchmarkFig4Bandwidth(b *testing.B) {
	var gems float64
	for i := 0; i < b.N; i++ {
		ctx := quickCtx()
		gems = ctx.BandwidthSensitivity(workload.MustByName("459.GemsFDTD"))
	}
	b.ReportMetric(gems, "GemsFDTD-vs-hog")
}

func BenchmarkFig5Clustering(b *testing.B) {
	var clusters float64
	for i := 0; i < b.N; i++ {
		ctx := quickCtx()
		clusters = float64(len(ctx.Fig5Clustering().Groups))
	}
	b.ReportMetric(clusters, "clusters")
}

func BenchmarkTable3Representatives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := quickCtx()
		res := ctx.Fig5Clustering()
		if len(res.Reps) == 0 {
			b.Fatal("no representatives")
		}
	}
}

func BenchmarkFig6AllocationSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := quickCtx()
		ctx.Reps = ctx.Reps[:2]
		pts := ctx.AllocationSpace(ctx.Reps[0], ctx.ThreadPoints, ctx.WayPoints)
		if len(pts) == 0 {
			b.Fatal("no allocation points")
		}
	}
}

func BenchmarkFig7YieldableCapacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := quickCtx()
		ctx.Reps = ctx.Reps[:2]
		if len(ctx.Fig7YieldableCapacity().Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig8Heatmap(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		ctx := quickCtx()
		res := ctx.Fig8Heatmap(ctx.Reps, ctx.Reps)
		avg = res.AvgSlowdown
	}
	b.ReportMetric((avg-1)*100, "avg-slowdown-%")
}

func BenchmarkFig9Policies(b *testing.B) {
	var shared, biased float64
	for i := 0; i < b.N; i++ {
		ctx := quickCtx()
		ctx.Reps = ctx.Reps[:3]
		res := ctx.Fig9StaticPolicies()
		shared = res.Avg["shared"]
		biased = res.Avg["biased"]
	}
	b.ReportMetric((shared-1)*100, "shared-avg-%")
	b.ReportMetric((biased-1)*100, "biased-avg-%")
}

func BenchmarkFig10Energy(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		ctx := quickCtx()
		ctx.Reps = ctx.Reps[:3]
		_, _, outcomes := ctx.Fig10and11Consolidation()
		var xs []float64
		for _, o := range outcomes {
			if o.Policy == "biased" {
				xs = append(xs, o.RelSocketEnergy)
			}
		}
		rel = stats.Mean(xs)
	}
	b.ReportMetric((1-rel)*100, "energy-saving-%")
}

func BenchmarkFig11WeightedSpeedup(b *testing.B) {
	var ws float64
	for i := 0; i < b.N; i++ {
		ctx := quickCtx()
		ctx.Reps = ctx.Reps[:3]
		_, _, outcomes := ctx.Fig10and11Consolidation()
		var xs []float64
		for _, o := range outcomes {
			if o.Policy == "biased" {
				xs = append(xs, o.WeightedSpeedup)
			}
		}
		ws = stats.Mean(xs)
	}
	b.ReportMetric(ws, "weighted-speedup")
}

func BenchmarkFig12Phases(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ctx := quickCtx()
		if len(ctx.Fig12Phases().Rows) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFig13Dynamic(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		ctx := quickCtx()
		ctx.Reps = ctx.Reps[:2]
		res := ctx.Fig13DynamicThroughput()
		gain = stats.Mean(res.DynamicGain)
	}
	b.ReportMetric((gain-1)*100, "dyn-bg-gain-%")
}

func BenchmarkHeadline(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		ctx := quickCtx()
		ctx.Reps = ctx.Reps[:3]
		res := ctx.Headline()
		saving = res.EnergySavingBiased
	}
	b.ReportMetric(saving*100, "biased-energy-saving-%")
}

// BenchmarkEngineBatchSweep measures the concurrent experiment engine:
// a partition-search-shaped pair sweep submitted as one batch through
// the worker pool with memoization disabled, reporting simulations per
// host second. Compare -cpu=1 vs -cpu=N to see the worker-pool scaling.
func BenchmarkEngineBatchSweep(b *testing.B) {
	fg := workload.MustByName("429.mcf")
	bg := workload.MustByName("ferret")
	r := sched.New(sched.Options{Scale: benchScale, DisableCache: true})
	var specs []sched.Spec
	for w := 1; w < 12; w++ {
		specs = append(specs, sched.PairSpec{Fg: fg, Bg: bg,
			FgWays: w, BgWays: 12 - w, Mode: sched.BackgroundLoop})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RunBatch(specs)
	}
	b.ReportMetric(float64(len(specs)*b.N)/b.Elapsed().Seconds(), "sims/s")
}

// BenchmarkScenarioMix pushes an N-job mix through the full hierarchy:
// a latency-sensitive foreground plus three looping batch co-runners,
// compiled from the shipped scenario file and executed with
// memoization off — the multiprogram hot path future PRs must not
// regress. Reported as simulated instructions per host second.
func BenchmarkScenarioMix(b *testing.B) {
	s, err := scenario.ParseFile("examples/scenarios/latency-3batch.json")
	if err != nil {
		b.Fatal(err)
	}
	// The shipped file declares the biased search; the hot path under
	// measurement is one mix execution, so pin a static fair split.
	s.Partition.Policy = scenario.PolicyRef{Name: scenario.PartitionFair}
	r := sched.New(sched.Options{Scale: benchScale, DisableCache: true})
	mix, err := s.Compile(r.MachineConfig())
	if err != nil {
		b.Fatal(err)
	}
	var instr float64
	for _, j := range mix.Jobs {
		instr += j.App.Instructions * benchScale
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := r.RunMix(mix)
		if len(res.Jobs) != 4 {
			b.Fatal("mix lost a job")
		}
	}
	b.ReportMetric(instr*float64(b.N)/b.Elapsed().Seconds(), "sim-instr/s")
}

// BenchmarkFleetRun measures the fleet layer end to end on a small
// pool: trace generation, the oracle's engine batch (alone baselines
// plus the protective way sweep), and the three-policy event loop.
// Each iteration uses a fresh runner, so the cost includes the
// simulations a cold fleet run must execute. Reported alongside
// requests placed per host second.
func BenchmarkFleetRun(b *testing.B) {
	def := &fleet.Def{
		Machines: 4,
		Duration: 0.05,
		Seed:     "bench",
		Arrivals: []loadgen.RequestClass{{App: "xalan", Rate: 400}},
		Backlog:  []loadgen.BatchDef{{App: "ferret", Count: 3, Iterations: 20}},
	}
	var requests int
	for i := 0; i < b.N; i++ {
		r := sched.New(sched.Options{Scale: benchScale})
		rep, err := fleet.Run(r, "bench", def, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Results) != 3 {
			b.Fatal("missing policy results")
		}
		requests = rep.Requests
	}
	b.ReportMetric(float64(requests*3*b.N)/b.Elapsed().Seconds(), "placements/s")
}

// BenchmarkFleetRunFast is BenchmarkFleetRun under the fast fidelity
// tier: the same cold fleet, but every co-location is predicted from
// MRC profiles instead of simulated — the per-application profiling
// runs are the only simulations left. The placements/s ratio against
// BenchmarkFleetRun is the speedup the analytic tier buys.
func BenchmarkFleetRunFast(b *testing.B) {
	def := &fleet.Def{
		Machines: 4,
		Duration: 0.05,
		Seed:     "bench",
		Fidelity: fleet.FidelityFast,
		Arrivals: []loadgen.RequestClass{{App: "xalan", Rate: 400}},
		Backlog:  []loadgen.BatchDef{{App: "ferret", Count: 3, Iterations: 20}},
	}
	var requests int
	for i := 0; i < b.N; i++ {
		r := sched.New(sched.Options{Scale: benchScale})
		rep, err := fleet.Run(r, "bench", def, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Results) != 3 {
			b.Fatal("missing policy results")
		}
		requests = rep.Requests
	}
	b.ReportMetric(float64(requests*3*b.N)/b.Elapsed().Seconds(), "placements/s")
}

// warmFleet parses a shipped fleet scenario and runs it once on a fresh
// runner at the given scale, so the memo holds every oracle simulation
// the definition needs. Timed iterations over the returned runner then
// measure the fleet layer itself — trace generation, oracle pricing
// from the memo, and the per-policy event loops — not engine sims.
func warmFleet(b *testing.B, path string, scale float64) (*sched.Runner, *fleet.Def, string) {
	b.Helper()
	s, err := scenario.ParseFile(path)
	if err != nil {
		b.Fatal(err)
	}
	r := sched.New(sched.Options{Scale: scale})
	if _, err := fleet.Run(r, s.Name, s.Fleet, 0); err != nil {
		b.Fatal(err)
	}
	return r, s.Fleet, s.Name
}

// BenchmarkFleetMultiPolicy replays the shipped 50-machine
// consolidation fleet across every registered policy over a warm memo:
// the work left is exactly the per-policy discrete-event episodes,
// which fleet.Run spreads over min(policies, Parallelism) goroutines
// (Parallelism defaults to GOMAXPROCS). Compare -cpu=1 vs -cpu=4 to
// see the episode-level scaling.
func BenchmarkFleetMultiPolicy(b *testing.B) {
	r, def, name := warmFleet(b, "examples/scenarios/fleet-consolidation-50.json", sched.QuickScale)
	npol := len(fleet.Policies())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := fleet.Run(r, name, def, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Results) != npol {
			b.Fatal("missing policy results")
		}
	}
	b.ReportMetric(float64(npol*b.N)/b.Elapsed().Seconds(), "episodes/s")
}

// BenchmarkFleetChurn replays the churn fleet — failure, drain, load
// spike, recovery — over a warm memo, pinning the cost of the event
// loop's re-placement machinery (eviction, the requeued FIFO, pending
// drains) that the allocation-free loop keeps off the heap.
func BenchmarkFleetChurn(b *testing.B) {
	r, def, name := warmFleet(b, "examples/scenarios/fleet-churn-50.json", sched.QuickScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := fleet.Run(r, name, def, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Results) == 0 {
			b.Fatal("missing policy results")
		}
	}
	b.ReportMetric(float64(len(fleet.Policies())*b.N)/b.Elapsed().Seconds(), "episodes/s")
}

// BenchmarkFleetMega10k replays the shipped 10,000-machine example at
// the engine's default scale under every policy over a warm memo: no
// simulations, so trace generation, fast-tier pricing and the three
// 10,000-machine episodes are the work. An episode's time goes to its
// set-up over the machine pool and, per event, to the completion heap
// and placement-index upkeep. `make profile BENCH=BenchmarkFleetMega10k`
// profiles it.
func BenchmarkFleetMega10k(b *testing.B) {
	r, def, name := warmFleet(b, "examples/scenarios/fleet-mega-10k.json", sched.DefaultScale)
	npol := len(fleet.Policies())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := fleet.Run(r, name, def, 0)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Results) != npol {
			b.Fatal("missing policy results")
		}
	}
	b.ReportMetric(float64(npol*b.N)/b.Elapsed().Seconds(), "episodes/s")
}

// probeMix is the canonical profiling mix BenchmarkModelBuild harvests
// from (the fleet fast tier's probeAloneMix shape).
func probeMix(r *sched.Runner, app *workload.Profile) sched.MixSpec {
	cfg := r.MachineConfig()
	threads := sched.CapThreads(app, cfg.Cores/2*cfg.ThreadsPerCore)
	slots := make([]int, threads)
	for i := range slots {
		slots[i] = i
	}
	return sched.MixSpec{
		Jobs:     []sched.MixJob{{App: app, Threads: threads, Slots: slots, Seed: "single"}},
		Setup:    model.ProbeSetup(),
		ProbeKey: model.ProbeKey(),
	}
}

// BenchmarkModelBuild isolates the analytic tier's own arithmetic: with
// the profiling simulations already run (outside the timer), one
// iteration harvests both MRC profiles and prices the full candidate
// sweep of one co-location — the work the fast tier does per pair.
func BenchmarkModelBuild(b *testing.B) {
	r := sched.New(sched.Options{Scale: benchScale})
	fg := workload.MustByName("xalan")
	bg := workload.MustByName("ferret")
	fgRes := r.RunMix(probeMix(r, fg))
	bgRes := r.RunMix(probeMix(r, bg))
	cfg := r.MachineConfig()
	var pred model.PairPrediction
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf, err := model.NewProfile(fg.Name, fg.MLP, fgRes, 0, cfg)
		if err != nil {
			b.Fatal(err)
		}
		pb, err := model.NewProfile(bg.Name, bg.MLP, bgRes, 0, cfg)
		if err != nil {
			b.Fatal(err)
		}
		est := model.NewEstimator(cfg)
		for w := 1; w < est.Assoc(); w++ {
			pred = est.PredictPair(pf, pb, float64(w), float64(est.Assoc()-w))
		}
	}
	if pred.FgSlowdown < 1 {
		b.Fatal("degenerate prediction")
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pairs/s")
}

// BenchmarkCacheAccess isolates the innermost simulator operation: one
// demand access against an LLC-geometry cache (6 MB, 12-way, hashed
// index) over a conflict-heavy pre-generated address stream. Every
// simulated instruction's memory traffic bottoms out here, so this is
// the microbenchmark the data-oriented line layout must hold.
func BenchmarkCacheAccess(b *testing.B) {
	c := cache.New(cache.Config{
		Name: "bench-llc", SizeBytes: 6 << 20, Assoc: 12, LineBytes: 64, HashIndex: true,
	})
	mask := cache.FullMask(12)
	r := rng.NewNamed("bench.cache")
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		// ~4 lines per set beyond capacity: a steady mix of hits,
		// misses, and evictions.
		addrs[i] = r.Uint64n(1 << 17)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(len(addrs)-1)], i&7 == 0, mask)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "accesses/s")
}

// BenchmarkTraceGen measures batched reference generation — the other
// half of the per-instruction hot path — through the same FillBatch
// call runEpoch uses, with a buffer of one epoch's typical data refs.
func BenchmarkTraceGen(b *testing.B) {
	g := trace.NewGenerator(trace.Config{
		DataBase:     1 << 40,
		PrivateBytes: 4 << 20,
		SharedBase:   1 << 41,
		SharedBytes:  1 << 20,
		SharedFrac:   0.2,
		Mix:          trace.PatternMix{Seq: 0.3, Stride: 0.2, Random: 0.5},
		WriteFrac:    0.3,
		StreamFrac:   0.05,
		HotFrac:      0.6,
		RepeatFrac:   0.1,
	}, rng.NewNamed("bench.trace"))
	buf := make([]trace.Ref, 512)
	b.ResetTimer()
	refs := 0
	for n := 0; n < b.N; n += len(buf) {
		g.FillBatch(buf)
		refs += len(buf)
	}
	b.ReportMetric(float64(refs)/b.Elapsed().Seconds(), "refs/s")
}

// BenchmarkSimulatorThroughput measures raw engine speed: simulated
// instructions per host second for a representative mixed workload.
func BenchmarkSimulatorThroughput(b *testing.B) {
	r := sched.New(sched.Options{Scale: 2e-3, DisableCache: true})
	app := workload.MustByName("canneal")
	instr := app.Instructions * 2e-3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Run(sched.SingleSpec{App: app, Threads: 4})
	}
	b.ReportMetric(instr*float64(b.N)/b.Elapsed().Seconds(), "sim-instr/s")
}
