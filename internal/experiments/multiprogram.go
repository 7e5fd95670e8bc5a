package experiments

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig8Result carries the co-scheduling heat map and its aggregates.
type Fig8Result struct {
	Table *Table
	// Slowdown[fg][bg] is the foreground's relative execution time.
	Slowdown map[string]map[string]float64
	// Aggregates over all pairs:
	AvgSlowdown, WorstSlowdown float64
	FracUnder2_5pct            float64 // fraction of fg apps with avg slowdown < 2.5%
	Sensitive, Aggressors      []string
}

// Fig8Heatmap reproduces Figure 8: normalized execution time of every
// foreground application against every background application with a
// fully shared LLC. fgApps/bgApps default to the context's app set.
func (c *Context) Fig8Heatmap(fgApps, bgApps []*workload.Profile) *Fig8Result {
	if fgApps == nil {
		fgApps = c.Apps
	}
	if bgApps == nil {
		bgApps = c.Apps
	}
	res := &Fig8Result{Slowdown: map[string]map[string]float64{}}
	var all []float64
	colSum := map[string]float64{} // per-fg average (sensitivity)
	rowSum := map[string]float64{} // per-bg average (aggressiveness)

	// One batch for the whole grid: each fg's alone baseline followed by
	// its row of pairs. Results come back in submission order.
	var specs []sched.Spec
	for _, fg := range fgApps {
		specs = append(specs, sched.AloneHalfSpec(fg))
		for _, bg := range bgApps {
			specs = append(specs, c.pairRun(fg, bg, 0, 0, false))
		}
	}
	results := c.R.RunBatch(specs)

	i := 0
	for _, fg := range fgApps {
		res.Slowdown[fg.Name] = map[string]float64{}
		alone := results[i].JobByName(fg.Name).Seconds
		i++
		for _, bg := range bgApps {
			sd := results[i].JobByName(fg.Name).Seconds / alone
			i++
			res.Slowdown[fg.Name][bg.Name] = sd
			all = append(all, sd)
			colSum[fg.Name] += sd
			rowSum[bg.Name] += sd
		}
	}

	res.AvgSlowdown = stats.Mean(all)
	res.WorstSlowdown = stats.Max(all)
	under := 0
	for _, fg := range fgApps {
		avg := colSum[fg.Name] / float64(len(bgApps))
		if avg < 1.025 {
			under++
		}
		if avg > 1.10 {
			res.Sensitive = append(res.Sensitive, fg.Name)
		}
	}
	res.FracUnder2_5pct = float64(under) / float64(len(fgApps))
	for _, bg := range bgApps {
		if rowSum[bg.Name]/float64(len(fgApps)) > 1.10 {
			res.Aggressors = append(res.Aggressors, bg.Name)
		}
	}

	t := &Table{Title: "Figure 8: fg slowdown with shared LLC (fg rows, bg columns)"}
	t.Columns = append([]string{"fg\\bg"}, names(bgApps)...)
	for _, fg := range fgApps {
		row := []string{fg.Name}
		for _, bg := range bgApps {
			row = append(row, fmt.Sprintf("%.2f", res.Slowdown[fg.Name][bg.Name]))
		}
		t.Add(row...)
	}
	t.Note("avg slowdown %s, worst %s; %.0f%% of fg apps under 2.5%% avg (paper: ~6%% avg, 34.5%% worst, ~49%% under 2.5%%)",
		pct(res.AvgSlowdown), pct(res.WorstSlowdown), res.FracUnder2_5pct*100)
	t.Note("sensitive (col avg >10%%): %v", res.Sensitive)
	t.Note("aggressors (row avg >10%%): %v", res.Aggressors)
	res.Table = t
	return res
}

func names(apps []*workload.Profile) []string {
	out := make([]string, len(apps))
	for i, a := range apps {
		out[i] = a.Name
	}
	return out
}

// PolicyOutcome is one (pair, policy) measurement.
type PolicyOutcome struct {
	Fg, Bg       string
	Policy       string  // partition policy name
	FgSlowdown   float64 // vs fg alone on 2 cores
	BgIterations float64 // background progress during the fg run
	FgWays       int     // static allocation used (0 = shared)
}

// Fig9Result carries the static-policy comparison.
type Fig9Result struct {
	Table    *Table
	Outcomes []PolicyOutcome
	// Avg and worst fg slowdown per policy name.
	Avg, Worst map[string]float64
}

// pairPlan is pol's partition plan on the §5 pair.
func (c *Context) pairPlan(pol partition.Policy, fg, bg *workload.Profile) *partition.Plan {
	plan, err := partition.PairPlan(pol, c.R.MachineConfig(), c.R.Scale(), fg, bg)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return plan
}

// staticPlanSpecs lists the runs of a pair's three §5.2 static-policy
// plans — the biased sweep (which includes the eventual biased run)
// and the shared and fair splits — after fg's alone baseline.
func (c *Context) staticPlanSpecs(fg, bg *workload.Profile) []sched.Spec {
	specs := []sched.Spec{sched.AloneHalfSpec(fg)}
	for _, pol := range partition.StaticPolicies() {
		specs = append(specs, c.pairPlan(pol, fg, bg).Specs()...)
	}
	return specs
}

// staticOutcomes harvests each static-policy plan, in
// partition.StaticPolicies order, from the results of the pair's
// staticPlanSpecs, and returns them with fg's §5.1 alone time.
func (c *Context) staticOutcomes(fg, bg *workload.Profile, res []*machine.Result) (float64, []partition.Outcome) {
	alone := res[0].JobByName(fg.Name).Seconds
	res = res[1:]
	var outs []partition.Outcome
	for _, pol := range partition.StaticPolicies() {
		plan := c.pairPlan(pol, fg, bg)
		n := len(plan.Specs())
		outs = append(outs, plan.Harvest(res[:n], alone))
		res = res[n:]
	}
	return alone, outs
}

// Fig9StaticPolicies reproduces Figure 9: foreground degradation under
// shared, fair, and best-biased partitioning for every ordered pair of
// representatives.
func (c *Context) Fig9StaticPolicies() *Fig9Result {
	res := &Fig9Result{
		Avg:   map[string]float64{},
		Worst: map[string]float64{},
	}
	sums := map[string][]float64{}

	t := &Table{Title: "Figure 9: fg slowdown by policy (pairs Ci+Cj of Table 3 representatives)",
		Columns: []string{"pair", "shared", "fair", "biased", "biased ways"}}

	var sweeps [][]sched.Spec
	for _, fg := range c.Reps {
		for _, bg := range c.Reps {
			sweeps = append(sweeps, c.staticPlanSpecs(fg, bg))
		}
	}
	results := c.runSweeps(sweeps)

	for i, fg := range c.Reps {
		for j, bg := range c.Reps {
			alone, outs := c.staticOutcomes(fg, bg, results[i*len(c.Reps)+j])
			label := fmt.Sprintf("C%d+C%d", i+1, j+1)
			row := []string{label}
			var biasedWays int
			for k, pol := range partition.StaticPolicies() {
				out := outs[k]
				if pol.Name() == scenario.PartitionBiased {
					biasedWays = out.LatencyWays
				}
				sd := out.Main.Jobs[0].Seconds / alone
				res.Outcomes = append(res.Outcomes, PolicyOutcome{
					Fg: fg.Name, Bg: bg.Name, Policy: pol.Name(),
					FgSlowdown:   sd,
					BgIterations: out.Main.Jobs[1].Iterations,
					FgWays:       out.LatencyWays,
				})
				sums[pol.Name()] = append(sums[pol.Name()], sd)
				row = append(row, fmt.Sprintf("%.3f", sd))
			}
			row = append(row, fmt.Sprintf("%d", biasedWays))
			t.Add(row...)
		}
	}
	for pol, xs := range sums {
		res.Avg[pol] = stats.Mean(xs)
		res.Worst[pol] = stats.Max(xs)
	}
	t.Note("avg slowdown: shared %s, fair %s, biased %s (paper: +5.9%%, +6.1%%, +2.3%%)",
		pct(res.Avg["shared"]), pct(res.Avg["fair"]), pct(res.Avg["biased"]))
	t.Note("worst: shared %s, fair %s, biased %s (paper: +34.5%%, +16.3%%, +7.4%%)",
		pct(res.Worst["shared"]), pct(res.Worst["fair"]), pct(res.Worst["biased"]))
	res.Table = t
	return res
}

// ConsolidationOutcome is one unordered pair's energy/throughput result
// for Figures 10 and 11.
type ConsolidationOutcome struct {
	A, B            string
	Policy          string  // partition policy name
	RelSocketEnergy float64 // consolidated / sequential
	WeightedSpeedup float64 // sum of per-app alone(8thr)/together speedups
}

// Fig10and11Consolidation reproduces Figures 10 and 11: socket energy
// and weighted speedup of concurrent execution versus running each
// application sequentially on the whole machine.
func (c *Context) Fig10and11Consolidation() (*Table, *Table, []ConsolidationOutcome) {
	e := &Table{Title: "Figure 10: socket energy vs sequential execution",
		Columns: []string{"pair", "shared", "fair", "biased"}}
	w := &Table{Title: "Figure 11: weighted speedup vs sequential execution",
		Columns: []string{"pair", "shared", "fair", "biased"}}
	var outcomes []ConsolidationOutcome
	sumsE := map[string][]float64{}
	sumsW := map[string][]float64{}

	// Stage 1: the sequential baselines, then every unordered pair's
	// static-policy plans, whose runs decide each policy's split.
	stage1 := [][]sched.Spec{nil}
	for i, a := range c.Reps {
		stage1[0] = append(stage1[0], sched.AloneWholeSpec(a))
		for _, b := range c.Reps[i:] {
			stage1 = append(stage1, c.staticPlanSpecs(a, b))
		}
	}
	res1 := c.runSweeps(stage1)
	whole, plans := res1[0], res1[1:]

	// Stage 2: each policy's consolidation run — both applications run
	// once — at the split its plan chose, as one batch in assembly order.
	var stage2 []sched.Spec
	for i, a := range c.Reps {
		for _, b := range c.Reps[i:] {
			_, outs := c.staticOutcomes(a, b, plans[0])
			plans = plans[1:]
			for _, out := range outs {
				stage2 = append(stage2, c.pairRun(a, b, out.Ways(0), out.Ways(1), true))
			}
		}
	}
	runs := c.R.RunBatch(stage2)

	for i, a := range c.Reps {
		for j := i; j < len(c.Reps); j++ {
			b := c.Reps[j]
			resA, resB := whole[i], whole[j]
			seqEnergy := resA.Energy.SocketJoules + resB.Energy.SocketJoules
			aAlone := resA.JobByName(a.Name).Seconds
			bAlone := resB.JobByName(b.Name).Seconds

			rowE := []string{fmt.Sprintf("C%d+C%d", i+1, j+1)}
			rowW := []string{rowE[0]}
			for _, pol := range partition.StaticPolicies() {
				pair := runs[0]
				runs = runs[1:]
				relE := pair.Energy.SocketJoules / seqEnergy
				ws := aAlone/pair.JobByName(a.Name).Seconds +
					bAlone/pair.JobByName(b.Name).Seconds
				outcomes = append(outcomes, ConsolidationOutcome{
					A: a.Name, B: b.Name, Policy: pol.Name(),
					RelSocketEnergy: relE, WeightedSpeedup: ws,
				})
				sumsE[pol.Name()] = append(sumsE[pol.Name()], relE)
				sumsW[pol.Name()] = append(sumsW[pol.Name()], ws)
				rowE = append(rowE, fmt.Sprintf("%.3f", relE))
				rowW = append(rowW, fmt.Sprintf("%.3f", ws))
			}
			e.Add(rowE...)
			w.Add(rowW...)
		}
	}
	e.Note("avg relative energy: shared %.3f, fair %.3f, biased %.3f (paper biased: 0.88, i.e. 12%% saving, max 37%%)",
		stats.Mean(sumsE["shared"]), stats.Mean(sumsE["fair"]), stats.Mean(sumsE["biased"]))
	w.Note("avg weighted speedup: shared %.2f, fair %.2f, biased %.2f (paper biased: 1.60, i.e. +60%%)",
		stats.Mean(sumsW["shared"]), stats.Mean(sumsW["fair"]), stats.Mean(sumsW["biased"]))
	return e, w, outcomes
}
