package experiments

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/prefetch"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The ablation studies implement the design alternatives and
// future-work hardware the paper discusses but could not measure:
//
//   - small-llc:    rerun the policy study on a 2 MB LLC, the geometry of
//     the prior simulation studies the paper contrasts itself
//     against (§8: partitioning gains >10% there).
//   - bwqos:        add the memory-bandwidth QoS the conclusion calls for
//     and re-measure the worst bandwidth-driven slowdowns.
//   - indexing:     plain vs hashed LLC indexing (the randomized index is
//     one of the reasons real hardware shows no working-set
//     knees, §3.2).
//   - replacement:  bit-PLRU vs true LRU vs random victim choice.
//   - inclusion:    inclusive vs non-inclusive LLC on small allocations
//     (the §3.2 direct-mapped pathology).
//   - prefetchers:  per-prefetcher contribution, extending Figure 3's
//     all-on/all-off comparison (§3.3 notes the DCU
//     prefetcher matters most).
//   - multibg:      one vs two background copies (§5.2's "more extreme
//     cases" paragraph).

// runnerWith builds a runner over a modified platform, sharing the
// context's scale, worker count, and stat counters (so ablation
// simulations show up in the shared engine footer) but not its
// memoized results.
func (c *Context) runnerWith(mut func(*machine.Config)) *sched.Runner {
	cfg := machine.Default()
	mut(&cfg)
	return sched.New(sched.Options{Machine: &cfg, Scale: c.R.Scale(),
		Parallelism: c.R.Parallelism(), Counters: c.R.Counters()})
}

// AblationSmallLLC reruns the shared/fair/biased comparison for the
// representative pairs on a 2 MB 8-way LLC.
func (c *Context) AblationSmallLLC() *Table {
	small := c.runnerWith(func(cfg *machine.Config) {
		cfg.Hier.LLC.SizeBytes = 2 << 20
		cfg.Hier.LLC.Assoc = 8
	})
	big := c.R

	t := &Table{Title: "Ablation: 2MB/8-way LLC vs the 6MB/12-way platform (fg slowdown)",
		Columns: []string{"pair", "6MB shared", "6MB biased", "2MB shared", "2MB biased"}}

	// Submit both platforms' full pair sweeps to their runners up front.
	var specs6, specs2 []sched.Spec
	for i, fg := range c.Reps {
		for j, bg := range c.Reps {
			if i == j {
				continue
			}
			specs6 = append(specs6, policySweepSpecs(big.MachineConfig(), fg, bg)...)
			specs2 = append(specs2, policySweepSpecs(small.MachineConfig(), fg, bg)...)
		}
	}
	warmAll([]*sched.Runner{big, small}, specs6, specs2)

	var gain6, gain2 []float64
	for i, fg := range c.Reps {
		for j, bg := range c.Reps {
			if i == j {
				continue
			}
			s6, b6 := policySlowdowns(big, fg, bg)
			s2, b2 := policySlowdowns(small, fg, bg)
			gain6 = append(gain6, s6-b6)
			gain2 = append(gain2, s2-b2)
			t.Add(fmt.Sprintf("C%d+C%d", i+1, j+1),
				fmt.Sprintf("%.3f", s6), fmt.Sprintf("%.3f", b6),
				fmt.Sprintf("%.3f", s2), fmt.Sprintf("%.3f", b2))
		}
	}
	t.Note("avg partitioning benefit (shared - biased slowdown): %.1f points at 6MB, %.1f points at 2MB",
		stats.Mean(gain6)*100, stats.Mean(gain2)*100)
	t.Note("paper §8: simulation studies at 1-2MB see >10%% partitioning gains; the 6MB LLC makes partitioning unnecessary for ~half the workloads")
	return t
}

// policySweepSpecs lists one pair's policy comparison on a platform:
// the biased-search sweep (alone baseline plus every uneven split of
// its LLC) and the shared run.
func policySweepSpecs(cfg machine.Config, fg, bg *workload.Profile) []sched.Spec {
	search := partition.SearchSpecs(cfg, fg, bg)
	specs := []sched.Spec{search[0],
		sched.PairSpec{Fg: fg, Bg: bg, Mode: sched.BackgroundLoop}}
	return append(specs, search[1:]...)
}

// policySlowdowns returns (shared, best-split) fg slowdowns for a pair
// on the given runner, running the sweep as one batch. The best split
// is the minimum over the sweep, not a searcher's selection rule.
func policySlowdowns(r *sched.Runner, fg, bg *workload.Profile) (float64, float64) {
	results := r.RunBatch(policySweepSpecs(r.MachineConfig(), fg, bg))
	alone := results[0].JobByName(fg.Name).Seconds
	shared := results[1].JobByName(fg.Name).Seconds / alone
	best := shared
	for _, res := range results[2:] {
		if sd := res.JobByName(fg.Name).Seconds / alone; sd < best {
			best = sd
		}
	}
	return shared, best
}

// AblationBandwidthQoS measures the worst bandwidth-driven slowdowns
// with and without per-job DRAM bandwidth reservations.
func (c *Context) AblationBandwidthQoS() *Table {
	qos := c.runnerWith(func(cfg *machine.Config) { cfg.BandwidthQoS = true })
	hog := workload.MustByName("stream_uncached")
	victims := []string{"462.libquantum", "470.lbm", "459.GemsFDTD", "fluidanimate", "streamcluster", "batik"}

	t := &Table{Title: "Ablation: memory-bandwidth QoS (slowdown vs stream_uncached hog)",
		Columns: []string{"app", "no QoS", "with QoS"}}

	var specs []sched.Spec
	for _, name := range victims {
		app := workload.MustByName(name)
		specs = append(specs,
			sched.AloneHalfSpec(app),
			sched.PairSpec{Fg: app, Bg: hog, Mode: sched.BackgroundLoop})
	}
	warmAll([]*sched.Runner{c.R, qos}, specs)

	var without, with []float64
	for _, name := range victims {
		app := workload.MustByName(name)
		base := c.R.AloneHalf(app).JobByName(name).Seconds
		noQ := c.R.RunPair(sched.PairSpec{Fg: app, Bg: hog, Mode: sched.BackgroundLoop}).
			JobByName(name).Seconds / base
		baseQ := qos.AloneHalf(app).JobByName(name).Seconds
		withQ := qos.RunPair(sched.PairSpec{Fg: app, Bg: hog, Mode: sched.BackgroundLoop}).
			JobByName(name).Seconds / baseQ
		without = append(without, noQ)
		with = append(with, withQ)
		t.Add(name, f(noQ), f(withQ))
	}
	t.Note("worst slowdown %.2fx without QoS vs %.2fx with QoS — the paper's §8 conjecture that bandwidth/latency QoS would close the residual isolation gap",
		stats.Max(without), stats.Max(with))
	return t
}

// AblationIndexing compares plain vs hashed LLC indexing on the
// capacity curve of a high-utility application.
func (c *Context) AblationIndexing() *Table {
	plain := c.runnerWith(func(cfg *machine.Config) { cfg.Hier.LLC.HashIndex = false })
	app := workload.MustByName("471.omnetpp")

	t := &Table{Title: "Ablation: hashed vs plain LLC set indexing (471.omnetpp, 1 thread)",
		Columns: []string{"ways", "hashed time(s)", "plain time(s)", "plain/hashed"}}

	sweep := c.capacitySpecs(app, 1)
	warmAll([]*sched.Runner{c.R, plain}, sweep)

	for _, w := range c.WayPoints {
		h := c.singleSeconds(app, 1, w)
		p := plain.RunSingle(sched.SingleSpec{App: app, Threads: 1, Ways: w}).
			JobByName(app.Name).Seconds
		t.Add(fmt.Sprintf("%d", w), fmt.Sprintf("%.4f", h), fmt.Sprintf("%.4f", p),
			fmt.Sprintf("%.3f", p/h))
	}
	t.Note("the randomized index spreads pathological strides; it is one of the effects the paper credits with removing clean working-set knees (§3.2)")
	return t
}

// AblationReplacement compares bit-PLRU, true LRU and random
// replacement in the LLC for the representatives.
func (c *Context) AblationReplacement() *Table {
	t := &Table{Title: "Ablation: LLC replacement policy (time at 4 threads, full LLC)",
		Columns: []string{"app", "plru(s)", "lru(s)", "random(s)", "lru/plru", "random/plru"}}
	lru := c.runnerWith(func(cfg *machine.Config) { cfg.Hier.LLC.Replacement = cache.ReplaceLRU })
	rnd := c.runnerWith(func(cfg *machine.Config) { cfg.Hier.LLC.Replacement = cache.ReplaceRandom })

	var specs []sched.Spec
	for _, app := range c.Reps {
		specs = append(specs, sched.SingleSpec{App: app, Threads: threadsFor(app, 4)})
	}
	warmAll([]*sched.Runner{c.R, lru, rnd}, specs)

	for _, app := range c.Reps {
		th := threadsFor(app, 4)
		p := c.singleSeconds(app, th, 0)
		l := lru.RunSingle(sched.SingleSpec{App: app, Threads: th}).JobByName(app.Name).Seconds
		r := rnd.RunSingle(sched.SingleSpec{App: app, Threads: th}).JobByName(app.Name).Seconds
		t.Add(app.Name, fmt.Sprintf("%.4f", p), fmt.Sprintf("%.4f", l), fmt.Sprintf("%.4f", r),
			fmt.Sprintf("%.3f", l/p), fmt.Sprintf("%.3f", r/p))
	}
	t.Note("bit-PLRU tracks true LRU closely on these reuse patterns; random replacement costs a few percent on reuse-heavy applications")
	return t
}

// AblationInclusion quantifies how much of the small-allocation
// pathology is inclusion victims.
func (c *Context) AblationInclusion() *Table {
	nonInc := c.runnerWith(func(cfg *machine.Config) { cfg.Hier.NonInclusiveLLC = true })
	t := &Table{Title: "Ablation: inclusive vs non-inclusive LLC at small allocations",
		Columns: []string{"app", "ways", "inclusive(s)", "non-inclusive(s)", "inclusion cost"}}

	var specs []sched.Spec
	for _, name := range []string{"429.mcf", "471.omnetpp", "h2"} {
		app := workload.MustByName(name)
		for _, w := range []int{1, 2, 12} {
			specs = append(specs, sched.SingleSpec{App: app, Threads: 1, Ways: w})
		}
	}
	warmAll([]*sched.Runner{c.R, nonInc}, specs)

	for _, name := range []string{"429.mcf", "471.omnetpp", "h2"} {
		app := workload.MustByName(name)
		for _, w := range []int{1, 2, 12} {
			inc := c.singleSeconds(app, 1, w)
			non := nonInc.RunSingle(sched.SingleSpec{App: app, Threads: 1, Ways: w}).
				JobByName(name).Seconds
			t.Add(name, fmt.Sprintf("%d", w), fmt.Sprintf("%.4f", inc),
				fmt.Sprintf("%.4f", non), pct(inc/non))
		}
	}
	t.Note("§3.2: inclusivity issues for inner cache levels amplify the 0.5MB direct-mapped pathology; a non-inclusive LLC shields the private caches")
	return t
}

// AblationPrefetchers breaks Figure 3's all-on/all-off comparison into
// per-prefetcher contributions for the prefetch-sensitive applications.
func (c *Context) AblationPrefetchers() *Table {
	apps := []string{"462.libquantum", "470.lbm", "459.GemsFDTD", "450.soplex", "facesim"}
	configs := []struct {
		name string
		cfg  prefetch.Config
	}{
		{"all-off", prefetch.AllOff()},
		{"dcu-ip", prefetch.Config{DCUIP: true}},
		{"dcu-stream", prefetch.Config{DCUStreamer: true}},
		{"mlc-spatial", prefetch.Config{MLCSpatial: true}},
		{"mlc-stream", prefetch.Config{MLCStreamer: true}},
		{"all-on", prefetch.AllOn()},
	}
	t := &Table{Title: "Ablation: per-prefetcher contribution (time normalized to all-off)"}
	t.Columns = append([]string{"app"}, configNames(configs)...)

	var specs []sched.Spec
	for _, name := range apps {
		app := workload.MustByName(name)
		for i := range configs {
			pf := configs[i].cfg
			specs = append(specs, sched.SingleSpec{App: app, Threads: 4, Prefetch: &pf})
		}
	}
	c.submit(specs)

	for _, name := range apps {
		app := workload.MustByName(name)
		row := []string{name}
		var offTime float64
		for _, cc := range configs {
			pf := cc.cfg
			sec := c.R.RunSingle(sched.SingleSpec{App: app, Threads: 4, Prefetch: &pf}).
				JobByName(name).Seconds
			if cc.name == "all-off" {
				offTime = sec
			}
			row = append(row, fmt.Sprintf("%.3f", sec/offTime))
		}
		t.Add(row...)
	}
	t.Note("§3.3: streaming codes benefit most from the streamer prefetchers; single-prefetcher configs show each unit's share")
	return t
}

// AblationMultiBackground reruns representative pairs with one vs two
// background copies (§5.2's "more extreme cases").
func (c *Context) AblationMultiBackground() *Table {
	t := &Table{Title: "Ablation: one vs two background copies (fg slowdown, shared LLC)",
		Columns: []string{"fg", "bg", "1 copy", "2 copies"}}

	var specs []sched.Spec
	for _, fgName := range []string{"429.mcf", "fop", "batik"} {
		for _, bgName := range []string{"ferret", "canneal"} {
			fg := workload.MustByName(fgName)
			bg := workload.MustByName(bgName)
			specs = append(specs,
				sched.AloneHalfSpec(fg),
				c.multiRun(fg, bg, 1),
				c.multiRun(fg, bg, 2))
		}
	}
	c.submit(specs)

	var one, two []float64
	for _, fgName := range []string{"429.mcf", "fop", "batik"} {
		for _, bgName := range []string{"ferret", "canneal"} {
			fg := workload.MustByName(fgName)
			bg := workload.MustByName(bgName)
			alone := c.aloneHalfSeconds(fg)
			s1 := c.R.Run(c.multiRun(fg, bg, 1)).
				JobByName(fg.Name).Seconds / alone
			s2 := c.R.Run(c.multiRun(fg, bg, 2)).
				JobByName(fg.Name).Seconds / alone
			one = append(one, s1)
			two = append(two, s2)
			t.Add(fgName, bgName, fmt.Sprintf("%.3f", s1), fmt.Sprintf("%.3f", s2))
		}
	}
	t.Note("avg slowdown %s with one copy vs %s with two (paper: additional copies only increase contention; already-degraded pairs degrade further)",
		pct(stats.Mean(one)), pct(stats.Mean(two)))
	return t
}

func configNames(configs []struct {
	name string
	cfg  prefetch.Config
}) []string {
	out := make([]string, len(configs))
	for i, c := range configs {
		out[i] = c.name
	}
	return out
}
