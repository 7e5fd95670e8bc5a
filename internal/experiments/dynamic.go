package experiments

import (
	"encoding/json"
	"fmt"

	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/perfmon"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig12Phases reproduces Figure 12: 429.mcf's MPKI over time under each
// static allocation and under the dynamic controller. For static
// allocations mcf runs against a ferret background confined to the
// complementary ways; the dynamic trace uses the controller.
func (c *Context) Fig12Phases() *Table {
	mcf := workload.MustByName("429.mcf")
	bg := workload.MustByName("ferret")
	interval := partition.SamplingInterval(mcf, c.R.Scale())
	cfg := machine.Default()
	assoc := cfg.Hier.LLC.Assoc
	dynamic := partition.MustNew(scenario.PartitionDynamic, nil)

	t := &Table{Title: "Figure 12: 429.mcf MPKI by phase and LLC allocation",
		Columns: []string{"allocation", "phase-min MPKI", "phase-max MPKI", "mean MPKI", "fg time(s)"}}

	summarize := func(samples []perfmon.Sample) (lo, hi, mean float64) {
		if len(samples) == 0 {
			return 0, 0, 0
		}
		var xs []float64
		for _, s := range samples {
			xs = append(xs, s.MPKI)
		}
		return stats.Min(xs), stats.Max(xs), stats.Mean(xs)
	}

	// All static allocations plus the dynamic run go out as one batch;
	// each static run's Setup hook installs a private sampler, and
	// results come back in allocation order.
	allocs := []int{2, 3, 5, 7, 9, 11}
	samplers := make([]*perfmon.Sampler, len(allocs))
	var ctl *partition.Loop
	specs := make([]sched.Spec, 0, len(allocs)+1)
	for i, w := range allocs {
		mix := sched.PairSpec{Fg: mcf, Bg: bg, FgWays: w, BgWays: assoc - w, Mode: sched.BackgroundLoop}.Mix(cfg)
		mix.Setup = func(m *machine.Machine, jobs []*machine.Job) {
			samplers[i] = perfmon.NewSampler(m, jobs[0], interval, func() int { return w })
		}
		specs = append(specs, mix)
	}
	dyn, _ := c.pairPlan(dynamic, mcf, bg).LoopSpec(&ctl)
	specs = append(specs, dyn)
	results := c.R.RunBatch(specs)

	for i, ways := range allocs {
		lo, hi, mean := summarize(samplers[i].Samples())
		t.Add(fmt.Sprintf("%d ways", ways), f(lo), f(hi), f(mean),
			fmt.Sprintf("%.4f", results[i].JobByName(mcf.Name).Seconds))
	}

	res := results[len(allocs)]
	lo, hi, mean := summarize(ctl.Samples())
	t.Add("dynamic", f(lo), f(hi), f(mean), fmt.Sprintf("%.4f", res.JobByName(mcf.Name).Seconds))
	minW, maxW := assoc, 0
	for _, s := range ctl.Samples() {
		if s.Ways < minW {
			minW = s.Ways
		}
		if s.Ways > maxW {
			maxW = s.Ways
		}
	}
	t.Note("dynamic allocation ranged %d-%d ways over %d reallocations (paper: 3-9 ways across 5 phase transitions)",
		minW, maxW, ctl.Reallocations())
	return t
}

// Fig13Result carries the dynamic-vs-static background throughput study.
type Fig13Result struct {
	Table *Table
	// Per ordered pair: bg throughput (iterations) under best-static,
	// dynamic, and shared, plus the fg cost of dynamic vs best-static.
	DynamicGain  []float64 // dynamic/static bg throughput ratios
	SharedGain   []float64 // shared/static bg throughput ratios
	FgCostVsBest []float64 // dynamic fg time / best-static fg time
}

// Fig13DynamicThroughput reproduces Figure 13: background throughput of
// the dynamic controller relative to each pair's best static
// allocation, with shared caching as the no-isolation reference.
func (c *Context) Fig13DynamicThroughput() *Fig13Result {
	res := &Fig13Result{}
	t := &Table{Title: "Figure 13: background throughput vs best static allocation",
		Columns: []string{"pair", "static iters", "dynamic iters", "dyn/static",
			"shared/static", "dyn fg cost"}}

	// The Figure 13 baseline is the static allocation best *for the
	// foreground*: the biased search with ties broken toward the
	// protective split. Each pair's sweep is fg's alone baseline, that
	// search's splits, the shared run and the dynamic controller's run,
	// and every pair goes out in one batch.
	protective := partition.MustNew(scenario.PartitionBiased, json.RawMessage(`{"rule":"foreground"}`))
	dynamic := partition.MustNew(scenario.PartitionDynamic, nil)
	var sweeps [][]sched.Spec
	for _, fg := range c.Reps {
		for _, bg := range c.Reps {
			sweep := append([]sched.Spec{sched.AloneHalfSpec(fg)}, c.pairPlan(protective, fg, bg).Specs()...)
			sweep = append(sweep, sched.PairSpec{Fg: fg, Bg: bg, Mode: sched.BackgroundLoop})
			sweeps = append(sweeps, append(sweep, c.pairPlan(dynamic, fg, bg).Specs()...))
		}
	}
	results := c.runSweeps(sweeps)

	for i, fg := range c.Reps {
		for j, bg := range c.Reps {
			runs := results[i*len(c.Reps)+j]
			n := len(runs)
			alone, shared, dyn := runs[0].JobByName(fg.Name).Seconds, runs[n-2], runs[n-1]
			static := c.pairPlan(protective, fg, bg).Harvest(runs[1:n-2], alone).Main

			sIter := static.JobByName(bg.Name).Iterations
			dIter := dyn.JobByName(bg.Name).Iterations
			shIter := shared.JobByName(bg.Name).Iterations
			// Throughput is iterations per unit time; normalize by the
			// window (fg completion) of each run.
			sRate := sIter / static.WindowSeconds
			dRate := dIter / dyn.WindowSeconds
			shRate := shIter / shared.WindowSeconds

			dynGain := dRate / sRate
			shGain := shRate / sRate
			fgCost := dyn.JobByName(fg.Name).Seconds / static.JobByName(fg.Name).Seconds
			res.DynamicGain = append(res.DynamicGain, dynGain)
			res.SharedGain = append(res.SharedGain, shGain)
			res.FgCostVsBest = append(res.FgCostVsBest, fgCost)

			t.Add(fmt.Sprintf("C%d+C%d", i+1, j+1),
				fmt.Sprintf("%.2f", sIter), fmt.Sprintf("%.2f", dIter),
				fmt.Sprintf("%.2f", dynGain), fmt.Sprintf("%.2f", shGain),
				fmt.Sprintf("%.3f", fgCost))
		}
	}
	t.Note("avg dynamic bg gain %.2fx, max %.2fx (paper: 1.19x avg, up to 2.5x)",
		stats.Mean(res.DynamicGain), stats.Max(res.DynamicGain))
	t.Note("avg shared bg gain %.2fx (paper: 1.53x, but without isolation)",
		stats.Mean(res.SharedGain))
	t.Note("avg dynamic fg cost vs best static %s (paper: within 2%%)",
		pct(stats.Mean(res.FgCostVsBest)))
	res.Table = t
	return res
}
