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

// variant returns the default platform with one change applied: the
// hardware an ablation compares against the paper's.
func variant(mut func(*machine.Config)) machine.Config {
	cfg := machine.Default()
	mut(&cfg)
	return cfg
}

// AblationSmallLLC reruns the shared/fair/biased comparison for the
// representative pairs on a 2 MB 8-way LLC.
func (c *Context) AblationSmallLLC() *Table {
	platforms := []machine.Config{machine.Default(), variant(func(cfg *machine.Config) {
		cfg.Hier.LLC.SizeBytes = 2 << 20
		cfg.Hier.LLC.Assoc = 8
	})}

	t := &Table{Title: "Ablation: 2MB/8-way LLC vs the 6MB/12-way platform (fg slowdown)",
		Columns: []string{"pair", "6MB shared", "6MB biased", "2MB shared", "2MB biased"}}

	// Each pair's sweep on both platforms, all in one batch.
	var sweeps [][]sched.Spec
	for i, fg := range c.Reps {
		for j, bg := range c.Reps {
			if i != j {
				for _, cfg := range platforms {
					sweeps = append(sweeps, policySweepSpecs(cfg, fg, bg))
				}
			}
		}
	}
	results := c.runSweeps(sweeps)

	var gain6, gain2 []float64
	for i, fg := range c.Reps {
		for j := range c.Reps {
			if i == j {
				continue
			}
			s6, b6 := policySlowdowns(results[0], fg)
			s2, b2 := policySlowdowns(results[1], fg)
			results = results[2:]
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
		sched.PairSpec{Fg: fg, Bg: bg, Mode: sched.BackgroundLoop}.Mix(cfg)}
	return append(specs, search[1:]...)
}

// policySlowdowns returns (shared, best-split) fg slowdowns from the
// results of one pair's policySweepSpecs. The best split is the
// minimum over the sweep, not a searcher's selection rule.
func policySlowdowns(results []*machine.Result, fg *workload.Profile) (float64, float64) {
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

// secondsOn runs every single spec on every platform in one batch and
// returns each app's completion time: out[i][k] is specs[i] on
// platforms[k].
func (c *Context) secondsOn(specs []sched.SingleSpec, platforms ...machine.Config) [][]float64 {
	sweeps := make([][]sched.Spec, len(specs))
	for i, s := range specs {
		for _, cfg := range platforms {
			sweeps[i] = append(sweeps[i], s.Mix(cfg))
		}
	}
	out := make([][]float64, len(specs))
	for i, res := range c.runSweeps(sweeps) {
		for _, r := range res {
			out[i] = append(out[i], r.JobByName(specs[i].App.Name).Seconds)
		}
	}
	return out
}

// AblationBandwidthQoS measures the worst bandwidth-driven slowdowns
// with and without per-job DRAM bandwidth reservations.
func (c *Context) AblationBandwidthQoS() *Table {
	platforms := []machine.Config{machine.Default(),
		variant(func(cfg *machine.Config) { cfg.BandwidthQoS = true })}
	hog := workload.MustByName("stream_uncached")
	victims := []string{"462.libquantum", "470.lbm", "459.GemsFDTD", "fluidanimate", "streamcluster", "batik"}

	t := &Table{Title: "Ablation: memory-bandwidth QoS (slowdown vs stream_uncached hog)",
		Columns: []string{"app", "no QoS", "with QoS"}}

	// Per victim and platform: the alone baseline, then the pair.
	var sweeps [][]sched.Spec
	for _, name := range victims {
		app := workload.MustByName(name)
		for _, cfg := range platforms {
			sweeps = append(sweeps, []sched.Spec{sched.AloneHalfSpec(app).Mix(cfg),
				sched.PairSpec{Fg: app, Bg: hog, Mode: sched.BackgroundLoop}.Mix(cfg)})
		}
	}
	results := c.runSweeps(sweeps)

	var without, with []float64
	for i, name := range victims {
		slowdown := func(res []*machine.Result) float64 {
			return res[1].JobByName(name).Seconds / res[0].JobByName(name).Seconds
		}
		noQ, withQ := slowdown(results[2*i]), slowdown(results[2*i+1])
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
	plain := variant(func(cfg *machine.Config) { cfg.Hier.LLC.HashIndex = false })
	app := workload.MustByName("471.omnetpp")

	t := &Table{Title: "Ablation: hashed vs plain LLC set indexing (471.omnetpp, 1 thread)",
		Columns: []string{"ways", "hashed time(s)", "plain time(s)", "plain/hashed"}}

	specs := make([]sched.SingleSpec, len(c.WayPoints))
	for i, w := range c.WayPoints {
		specs[i] = sched.SingleSpec{App: app, Threads: 1, Ways: w}
	}
	secs := c.secondsOn(specs, machine.Default(), plain)
	for i, w := range c.WayPoints {
		h, p := secs[i][0], secs[i][1]
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
	lru := variant(func(cfg *machine.Config) { cfg.Hier.LLC.Replacement = cache.ReplaceLRU })
	rnd := variant(func(cfg *machine.Config) { cfg.Hier.LLC.Replacement = cache.ReplaceRandom })

	specs := make([]sched.SingleSpec, len(c.Reps))
	for i, app := range c.Reps {
		specs[i] = sched.SingleSpec{App: app, Threads: threadsFor(app, 4)}
	}
	secs := c.secondsOn(specs, machine.Default(), lru, rnd)
	for i, app := range c.Reps {
		p, l, r := secs[i][0], secs[i][1], secs[i][2]
		t.Add(app.Name, fmt.Sprintf("%.4f", p), fmt.Sprintf("%.4f", l), fmt.Sprintf("%.4f", r),
			fmt.Sprintf("%.3f", l/p), fmt.Sprintf("%.3f", r/p))
	}
	t.Note("bit-PLRU tracks true LRU closely on these reuse patterns; random replacement costs a few percent on reuse-heavy applications")
	return t
}

// AblationInclusion quantifies how much of the small-allocation
// pathology is inclusion victims.
func (c *Context) AblationInclusion() *Table {
	nonInc := variant(func(cfg *machine.Config) { cfg.Hier.NonInclusiveLLC = true })
	t := &Table{Title: "Ablation: inclusive vs non-inclusive LLC at small allocations",
		Columns: []string{"app", "ways", "inclusive(s)", "non-inclusive(s)", "inclusion cost"}}

	var specs []sched.SingleSpec
	for _, name := range []string{"429.mcf", "471.omnetpp", "h2"} {
		app := workload.MustByName(name)
		for _, w := range []int{1, 2, 12} {
			specs = append(specs, sched.SingleSpec{App: app, Threads: 1, Ways: w})
		}
	}
	secs := c.secondsOn(specs, machine.Default(), nonInc)
	for i, s := range specs {
		inc, non := secs[i][0], secs[i][1]
		t.Add(s.App.Name, fmt.Sprintf("%d", s.Ways), fmt.Sprintf("%.4f", inc),
			fmt.Sprintf("%.4f", non), pct(inc/non))
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

	sweeps := make([][]sched.Spec, len(apps))
	for i, name := range apps {
		app := workload.MustByName(name)
		for k := range configs {
			sweeps[i] = append(sweeps[i], sched.SingleSpec{App: app, Threads: 4, Prefetch: &configs[k].cfg})
		}
	}

	for i, res := range c.runSweeps(sweeps) {
		name := apps[i]
		row := []string{name}
		var offTime float64
		for k, cc := range configs {
			sec := res[k].JobByName(name).Seconds
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

	// Per pair: the foreground alone, then beside one and two copies.
	var pairs [][2]string
	var sweeps [][]sched.Spec
	for _, fgName := range []string{"429.mcf", "fop", "batik"} {
		for _, bgName := range []string{"ferret", "canneal"} {
			fg := workload.MustByName(fgName)
			bg := workload.MustByName(bgName)
			pairs = append(pairs, [2]string{fgName, bgName})
			sweeps = append(sweeps, []sched.Spec{
				sched.AloneHalfSpec(fg),
				c.multiRun(fg, bg, 1),
				c.multiRun(fg, bg, 2)})
		}
	}

	var one, two []float64
	for i, res := range c.runSweeps(sweeps) {
		fgName := pairs[i][0]
		alone := res[0].JobByName(fgName).Seconds
		s1 := res[1].JobByName(fgName).Seconds / alone
		s2 := res[2].JobByName(fgName).Seconds / alone
		one = append(one, s1)
		two = append(two, s2)
		t.Add(fgName, pairs[i][1], fmt.Sprintf("%.3f", s1), fmt.Sprintf("%.3f", s2))
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
