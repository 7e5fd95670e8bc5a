package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/loadgen"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/prefetch"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The ladder times one public call per layer, from a single cache
// access up to one HTTP submission, so a change in an end-to-end
// number can be traced to the rung that moved. It runs only in the
// traced pass, in the parent process after the workload child has
// exited, and records one span per call batch.
type ladder struct {
	o      childOpts
	tr     *obs.Tracer
	parent obs.SpanID
	budget time.Duration // per rung
	out    map[string]float64
}

type rung struct {
	name string // span name: the public call the rung times
	run  func(l *ladder) error
}

var rungs = []rung{
	{"cache.Cache.Access", (*ladder).cacheAccess},
	{"cache.Hierarchy.Access", (*ladder).hierAccess},
	{"prefetch.Unit.Observe", (*ladder).prefetchObserve},
	{"trace.Generator.FillBatch", (*ladder).traceFill},
	{"sched.Runner.RunMix", (*ladder).machineMix},
	{"sched.Runner.RunBatch", (*ladder).schedBatch},
	{"sched.Runner.Run", (*ladder).memoHit},
	{"sched.store", (*ladder).diskStore},
	{"model.Estimator.PredictPair", (*ladder).modelPredict},
	{"loadgen.ArrivalsScaled", (*ladder).loadgenArrivals},
	{"fleet.RunWith", (*ladder).fleetPhases},
	{"scenario.Parse", (*ladder).scenarioParse},
	{"server.Handler", (*ladder).serverRoundTrip},
}

// runLadder measures every rung within about budget in total and
// returns the per-layer metrics by name.
func runLadder(o childOpts, budget time.Duration, tr *obs.Tracer) (map[string]float64, error) {
	l := &ladder{o: o, tr: tr, budget: budget / time.Duration(len(rungs)), out: map[string]float64{}}
	root := tr.Start("bench.ladder", 0)
	defer root.End()
	for _, r := range rungs {
		sp := tr.Start(r.name, root.ID())
		l.parent = sp.ID()
		err := r.run(l)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
	}
	return l.out, nil
}

// repeat calls f until the rung's budget is spent (at least once) and
// stores the median of each value f returns under the matching name.
func (l *ladder) repeat(names []string, f func() ([]float64, error)) error {
	vals := make([][]float64, len(names))
	deadline := time.Now().Add(l.budget)
	for len(vals[0]) == 0 || time.Now().Before(deadline) {
		sp := l.tr.Start("bench.rep", l.parent)
		v, err := f()
		sp.End()
		if err != nil {
			return err
		}
		for i := range names {
			vals[i] = append(vals[i], v[i])
		}
	}
	for i, n := range names {
		l.out[n] = quantile(vals[i], 0.5)
	}
	return nil
}

func (l *ladder) rng(name string) *rng.Stream {
	return rng.NewNamed(fmt.Sprintf("bench.ladder.%s.%d", name, l.o.seed))
}

func perOp(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// cacheAccess times Cache.Access on the LLC geometry (6 MB, 12-way,
// hashed index) over a seeded stream about twice the cache's size,
// after a warming pass, and records the demand miss ratio of one fixed
// pass.
func (l *ladder) cacheAccess() error {
	c := cache.New(cache.Config{Name: "bench-llc", SizeBytes: 6 << 20, Assoc: 12, LineBytes: 64, HashIndex: true})
	mask := cache.FullMask(12)
	r := l.rng("cache")
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = r.Uint64n(1 << 17)
	}
	pass := func(n int) {
		for i := 0; i < n; i++ {
			c.Access(addrs[i&(len(addrs)-1)], i&7 == 0, mask)
		}
	}
	pass(len(addrs))
	c.ResetStats()
	pass(len(addrs))
	st := c.Stats()
	l.out["cache.llc_miss_ratio"] = float64(st.Misses) / float64(st.Accesses)
	const n = 1 << 20
	return l.repeat([]string{"cache.access_ns"}, func() ([]float64, error) {
		t0 := time.Now()
		pass(n)
		return []float64{perOp(time.Since(t0), n)}, nil
	})
}

// hierAccess times Hierarchy.Access on the four-core Sandy Bridge
// hierarchy, each core streaming its own seeded region.
func (l *ladder) hierAccess() error {
	h := cache.NewHierarchy(cache.SandyBridgeHierarchy(4))
	r := l.rng("hier")
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(i&3)<<32 | r.Uint64n(1<<16)
	}
	pass := func(n int) {
		for i := 0; i < n; i++ {
			h.Access(i&3, addrs[i&(len(addrs)-1)], i&7 == 0, false)
		}
	}
	pass(len(addrs))
	const n = 1 << 19
	return l.repeat([]string{"cache.hier_access_ns"}, func() ([]float64, error) {
		t0 := time.Now()
		pass(n)
		return []float64{perOp(time.Since(t0), n)}, nil
	})
}

// traceConfig is a mixed-pattern generator: sequential, strided and
// skewed-random references with sharing, stores and repeats.
func traceConfig() trace.Config {
	return trace.Config{
		DataBase: 1 << 40, PrivateBytes: 4 << 20,
		SharedBase: 1 << 41, SharedBytes: 1 << 20, SharedFrac: 0.2,
		Mix:       trace.PatternMix{Seq: 0.3, Stride: 0.2, Random: 0.5},
		WriteFrac: 0.3, StreamFrac: 0.05, HotFrac: 0.6, RepeatFrac: 0.1,
	}
}

// prefetchObserve times one demand reference through the prefetch
// unit (ObserveL1D then ObserveL2) and records how many prefetches a
// fresh unit issues per thousand references of one fixed pass.
func (l *ladder) prefetchObserve() error {
	refs := make([]trace.Ref, 1<<16)
	trace.NewGenerator(traceConfig(), l.rng("prefetch")).FillBatch(refs)
	u := prefetch.NewUnit(prefetch.AllOn())
	pass := func(n int) {
		for i := 0; i < n; i++ {
			ref := &refs[i&(len(refs)-1)]
			u.ObserveL1D(ref.PC, ref.LineAddr)
			u.ObserveL2(ref.LineAddr)
		}
	}
	pass(len(refs))
	l.out["prefetch.issued_per_kref"] = float64(u.Stats().Issued()) * 1000 / float64(len(refs))
	const n = 1 << 19
	return l.repeat([]string{"prefetch.observe_ns"}, func() ([]float64, error) {
		t0 := time.Now()
		pass(n)
		return []float64{perOp(time.Since(t0), n)}, nil
	})
}

// traceFill times batched reference generation with the simulator's
// 512-reference buffer.
func (l *ladder) traceFill() error {
	g := trace.NewGenerator(traceConfig(), l.rng("trace"))
	buf := make([]trace.Ref, 512)
	const batches = 1 << 10
	return l.repeat([]string{"trace.ref_ns"}, func() ([]float64, error) {
		t0 := time.Now()
		for i := 0; i < batches; i++ {
			g.FillBatch(buf)
		}
		return []float64{perOp(time.Since(t0), batches*len(buf))}, nil
	})
}

// machineMix runs latency-3batch uncached as one mix: under a fair
// static split (simulated instructions per host second, with the
// latency job's IPC and LLC MPKI), and under the online utility policy,
// whose extra host time is the partition loop's cost.
func (l *ladder) machineMix() error {
	body, err := loadSeeded(l.o.root, "latency-3batch", l.o.seed)
	if err != nil {
		return err
	}
	r := sched.New(sched.Options{Scale: l.o.scale(), DisableCache: true})
	compile := func(policy string, lp **partition.Loop) (sched.MixSpec, error) {
		sc, err := scenario.Parse(body)
		if err != nil {
			return sched.MixSpec{}, err
		}
		sc.Partition.Policy = scenario.PolicyRef{Name: policy}
		if lp == nil {
			return sc.Compile(r.MachineConfig())
		}
		return sc.CompileOnline(r.MachineConfig(), r.Scale(), lp)
	}
	fair, err := compile(scenario.PartitionFair, nil)
	if err != nil {
		return err
	}
	var loop *partition.Loop
	util, err := compile(scenario.PartitionUtility, &loop)
	if err != nil {
		return err
	}
	first := true
	var fairS, utilS []float64
	err = l.repeat([]string{"machine.sim_instr_per_s"}, func() ([]float64, error) {
		t0 := time.Now()
		res := r.RunMix(fair)
		el := time.Since(t0).Seconds()
		t1 := time.Now()
		r.RunMix(util)
		utilS = append(utilS, time.Since(t1).Seconds())
		fairS = append(fairS, el)
		var instr float64
		for _, j := range res.Jobs {
			instr += j.Instructions
		}
		if first {
			first = false
			l.out["machine.ipc"] = res.Jobs[0].IPC
			l.out["machine.llc_mpki"] = res.Jobs[0].LLCMPKI
			l.out["partition.reallocations"] = float64(loop.Reallocations())
		}
		return []float64{instr / el}, nil
	})
	l.out["partition.online_s"] = quantile(utilS, 0.5) - quantile(fairS, 0.5)
	return err
}

// pairSweep is the biased search's shape: mcf against ferret at every
// split of the 12 ways.
func pairSweep() []sched.Spec {
	fg, bg := workload.MustByName("429.mcf"), workload.MustByName("ferret")
	var specs []sched.Spec
	for w := 1; w < 12; w++ {
		specs = append(specs, sched.PairSpec{Fg: fg, Bg: bg, FgWays: w, BgWays: 12 - w, Mode: sched.BackgroundLoop})
	}
	return specs
}

// schedBatch times one uncached RunBatch of the sweep: simulations per
// host second, and the worker pool's efficiency (busy time over wall
// time times workers).
func (l *ladder) schedBatch() error {
	r := sched.New(sched.Options{Scale: l.o.scale(), DisableCache: true})
	specs := pairSweep()
	return l.repeat([]string{"sched.batch_sims_per_s", "sched.parallel_eff"}, func() ([]float64, error) {
		before := r.Stats()
		t0 := time.Now()
		r.RunBatch(specs)
		wall := time.Since(t0).Seconds()
		d := r.Stats().Delta(before)
		return []float64{float64(len(specs)) / wall, d.BusySeconds / (wall * float64(r.Parallelism()))}, nil
	})
}

// memoHit times Runner.Run of an already-memoized spec.
func (l *ladder) memoHit() error {
	r := sched.New(sched.Options{Scale: l.o.scale()})
	spec := pairSweep()[5]
	r.Run(spec)
	const n = 1 << 14
	return l.repeat([]string{"sched.memo_hit_us"}, func() ([]float64, error) {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			r.Run(spec)
		}
		return []float64{perOp(time.Since(t0), n) / 1e3}, nil
	})
}

// diskStore writes a batch's records to a fresh result store, then
// reads them back through a second runner, timing each record from
// the engine's disk-save and disk-load phases.
func (l *ladder) diskStore() error {
	specs := pairSweep()[3:7]
	phase := func(st sched.Stats, name string) float64 {
		for _, p := range st.Phases {
			if p.Name == name && p.Count > 0 {
				return p.Seconds * 1e3 / float64(p.Count)
			}
		}
		return 0
	}
	return l.repeat([]string{"sched.disk_save_ms", "sched.disk_load_ms"}, func() ([]float64, error) {
		dir, err := os.MkdirTemp(l.o.tmp, "ladder-store-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		w := sched.New(sched.Options{Scale: l.o.scale(), CacheDir: dir})
		w.RunBatch(specs)
		rd := sched.New(sched.Options{Scale: l.o.scale(), CacheDir: dir})
		rd.RunBatch(specs)
		if got := rd.Stats().DiskHits; got != uint64(len(specs)) {
			return nil, fmt.Errorf("%d disk hits, want %d", got, len(specs))
		}
		return []float64{phase(w.Stats(), sched.PhaseDiskSave), phase(rd.Stats(), sched.PhaseDiskLoad)}, nil
	})
}

// modelPredict times Estimator.PredictPair over all eleven splits of
// one co-location, from the profiling runs the fast tier harvests.
func (l *ladder) modelPredict() error {
	r := sched.New(sched.Options{Scale: l.o.scale()})
	cfg := r.MachineConfig()
	profile := func(name string) (*model.Profile, error) {
		app := workload.MustByName(name)
		threads := sched.CapThreads(app, cfg.Cores/2*cfg.ThreadsPerCore)
		slots := make([]int, threads)
		for i := range slots {
			slots[i] = i
		}
		res := r.RunMix(sched.MixSpec{
			Jobs:     []sched.MixJob{{App: app, Threads: threads, Slots: slots, Seed: fmt.Sprintf("single-s%d", l.o.seed)}},
			Setup:    model.ProbeSetup(),
			ProbeKey: model.ProbeKey(),
		})
		return model.NewProfile(app.Name, app.MLP, res, 0, cfg)
	}
	fg, err := profile("xalan")
	if err != nil {
		return err
	}
	bg, err := profile("ferret")
	if err != nil {
		return err
	}
	est := model.NewEstimator(cfg)
	const rounds = 256
	return l.repeat([]string{"model.predict_us"}, func() ([]float64, error) {
		t0 := time.Now()
		calls := 0
		for k := 0; k < rounds; k++ {
			for w := 1; w < est.Assoc(); w++ {
				est.PredictPair(fg, bg, float64(w), float64(est.Assoc()-w))
				calls++
			}
		}
		return []float64{perOp(time.Since(t0), calls) / 1e3}, nil
	})
}

// loadgenArrivals times generating fleet-mega-10k's arrival trace.
func (l *ladder) loadgenArrivals() error {
	body, err := loadSeeded(l.o.root, megaExample, l.o.seed)
	if err != nil {
		return err
	}
	sc, err := scenario.Parse(body)
	if err != nil {
		return err
	}
	def := sc.Fleet
	return l.repeat([]string{"loadgen.arrivals_ms"}, func() ([]float64, error) {
		t0 := time.Now()
		if _, err := loadgen.ArrivalsScaled(def.Arrivals, def.Duration, def.Seed, nil); err != nil {
			return nil, err
		}
		return []float64{time.Since(t0).Seconds() * 1e3}, nil
	})
}

// fleetPhases runs fleet-utility-50 cold once (the oracle's pricing
// phases) and then warm (the per-policy episodes), reading both from
// the envelope's phase accounting.
func (l *ladder) fleetPhases() error {
	body, err := loadSeeded(l.o.root, "fleet-utility-50", l.o.seed)
	if err != nil {
		return err
	}
	sess, err := core.NewSessionWith(core.RunConfig{Scale: l.o.scale()}, l.tr)
	if err != nil {
		return err
	}
	run := func() ([]core.PhaseStat, error) {
		sc, err := scenario.Parse(body)
		if err != nil {
			return nil, err
		}
		res, err := sess.RunScenario(sc, core.RunConfig{})
		if err != nil {
			return nil, err
		}
		return res.Envelope.Stats.Phases, nil
	}
	sum := func(ph []core.PhaseStat, names ...string) float64 {
		var s float64
		for _, p := range ph {
			for _, n := range names {
				if p.Name == n {
					s += p.Seconds
				}
			}
		}
		return s * 1e3
	}
	cold, err := run()
	if err != nil {
		return err
	}
	l.out["fleet.oracle_ms"] = sum(cold, "probe", "oracle", "predict", "resim", "replace")
	return l.repeat([]string{"fleet.episode_ms"}, func() ([]float64, error) {
		ph, err := run()
		return []float64{sum(ph, "episode")}, err
	})
}

// scenarioParse times scenario.Parse of every shipped non-mega example.
func (l *ladder) scenarioParse() error {
	reqs, err := loadRequests(l.o.root, l.o.seed, append(append([]string{}, mixExamples...), fleetExamples...)...)
	if err != nil {
		return err
	}
	const rounds = 64
	return l.repeat([]string{"scenario.parse_us"}, func() ([]float64, error) {
		t0 := time.Now()
		for k := 0; k < rounds; k++ {
			for _, rq := range reqs {
				if _, err := scenario.Parse(rq.body); err != nil {
					return nil, err
				}
			}
		}
		return []float64{perOp(time.Since(t0), rounds*len(reqs)) / 1e3}, nil
	})
}

// serverRoundTrip stands up the service on a loopback port and times,
// from one client: the POST round trip and the submit-to-report latency
// of a memoized spec, the polls that took, and the latency of fresh
// fuzz specs the server has never seen.
func (l *ladder) serverRoundTrip() error {
	sess, err := core.NewSessionWith(core.RunConfig{Scale: l.o.scale()}, obs.New(0))
	if err != nil {
		return err
	}
	srv := server.New(sess, serverOptions())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	c := newClient(ln.Addr().String())
	defer func() {
		c.close()
		srv.Drain()
		hs.Shutdown(ctx)
		<-errc
	}()

	body, err := loadSeeded(l.o.root, "consolidation-4app", l.o.seed)
	if err != nil {
		return err
	}
	if _, err := c.run(ctx, body, 0, nil, 0); err != nil {
		return err
	}
	var fresh []float64
	for k := uint64(0); k < 3; k++ {
		sc, _ := freshFleet(1<<62 | l.o.seed<<16 | k<<4)
		fb, err := json.Marshal(sc)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := c.run(ctx, fb, 0, l.tr, l.parent); err != nil {
			return err
		}
		fresh = append(fresh, time.Since(t0).Seconds()*1e3)
	}
	l.out["server.fresh_lat_ms"] = quantile(fresh, 0.5)
	return l.repeat([]string{"server.submit_ms", "server.warm_lat_ms", "server.polls_per_req"}, func() ([]float64, error) {
		t0 := time.Now()
		cl, err := c.run(ctx, body, 0, l.tr, l.parent)
		return []float64{cl.submit.Seconds() * 1e3, time.Since(t0).Seconds() * 1e3, float64(cl.polls)}, err
	})
}
