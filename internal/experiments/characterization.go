package experiments

import (
	"fmt"
	"strconv"

	"repro/internal/machine"
	"repro/internal/prefetch"
	"repro/internal/sched"
	"repro/internal/workload"
)

// ScalabilityClass is the Table 1 categorization.
type ScalabilityClass string

// Table 1 classes.
const (
	ScalLow       ScalabilityClass = "low"
	ScalSaturated ScalabilityClass = "saturated"
	ScalHigh      ScalabilityClass = "high"
)

// classifyScalability applies thresholds to a speedup curve: low if the
// best speedup stays under 1.7, high if the app is still gaining at 8
// threads with a healthy overall speedup, saturated otherwise.
func classifyScalability(speedups map[int]float64) ScalabilityClass {
	best := 1.0
	for _, s := range speedups {
		if s > best {
			best = s
		}
	}
	switch {
	case best < 1.7:
		return ScalLow
	case speedups[8] >= 3.3 && speedups[8] >= 1.08*speedups[6]:
		return ScalHigh
	case speedups[8] >= 3.3:
		return ScalSaturated
	default:
		return ScalSaturated
	}
}

// speedupSpecs lists the runs one application's Figure 1 series needs:
// the 1-thread baseline plus every thread point.
func (c *Context) speedupSpecs(app *workload.Profile) []sched.Spec {
	specs := []sched.Spec{sched.SingleSpec{App: app, Threads: 1}}
	for _, th := range c.ThreadPoints {
		specs = append(specs, sched.SingleSpec{App: app, Threads: th})
	}
	return specs
}

// SpeedupCurve measures app's speedup at each thread point, normalized
// to 1 thread (Figure 1's series for one application). The points run
// as one batch across the engine's workers.
func (c *Context) SpeedupCurve(app *workload.Profile) map[int]float64 {
	return c.speedups(app, c.R.RunBatch(c.speedupSpecs(app)))
}

// speedups reads one application's speedup curve from the results of
// its speedupSpecs.
func (c *Context) speedups(app *workload.Profile, res []*machine.Result) map[int]float64 {
	t1 := res[0].JobByName(app.Name).Seconds
	out := make(map[int]float64, len(c.ThreadPoints))
	for i, th := range c.ThreadPoints {
		out[th] = t1 / res[i+1].JobByName(app.Name).Seconds
	}
	return out
}

// speedupCurves runs every application's Figure 1 series as one batch
// and returns the curves in c.Apps order.
func (c *Context) speedupCurves() []map[int]float64 {
	sweeps := make([][]sched.Spec, len(c.Apps))
	for i, app := range c.Apps {
		sweeps[i] = c.speedupSpecs(app)
	}
	curves := make([]map[int]float64, len(c.Apps))
	for i, res := range c.runSweeps(sweeps) {
		curves[i] = c.speedups(c.Apps[i], res)
	}
	return curves
}

// Fig1ThreadScalability reproduces Figure 1: normalized speedup of every
// application from 1 to 8 threads.
func (c *Context) Fig1ThreadScalability() *Table {
	t := &Table{Title: "Figure 1: speedup vs threads (normalized to 1 thread)"}
	t.Columns = append([]string{"app", "suite"}, colsForThreads(c.ThreadPoints)...)
	for i, cur := range c.speedupCurves() {
		app := c.Apps[i]
		row := []string{app.Name, app.Suite}
		for _, th := range c.ThreadPoints {
			row = append(row, f(cur[th]))
		}
		t.Add(row...)
	}
	t.Note("paper: PARSEC mostly >4x at 8 threads; DaCapo largely 1-2.3x; SPEC and microbenchmarks flat")
	return t
}

func colsForThreads(ths []int) []string {
	var out []string
	for _, th := range ths {
		out = append(out, fmt.Sprintf("t%d", th))
	}
	return out
}

// Table1Scalability reproduces Table 1: the scalability classification.
func (c *Context) Table1Scalability() (*Table, map[string]ScalabilityClass) {
	t := &Table{Title: "Table 1: thread scalability classes",
		Columns: []string{"app", "suite", "speedup@8", "class"}}
	classes := map[string]ScalabilityClass{}
	for i, cur := range c.speedupCurves() {
		app := c.Apps[i]
		cl := classifyScalability(cur)
		classes[app.Name] = cl
		t.Add(app.Name, app.Suite, f(cur[8]), string(cl))
	}
	return t, classes
}

// UtilityClass is the Table 2 categorization.
type UtilityClass string

// Table 2 classes.
const (
	UtilLow       UtilityClass = "low"
	UtilSaturated UtilityClass = "saturated"
	UtilHigh      UtilityClass = "high"
)

// capacitySpecs lists one application's way sweep at a thread count.
func (c *Context) capacitySpecs(app *workload.Profile, threads int) []sched.Spec {
	specs := make([]sched.Spec, len(c.WayPoints))
	for i, w := range c.WayPoints {
		specs[i] = sched.SingleSpec{App: app, Threads: threads, Ways: w}
	}
	return specs
}

// CapacityCurve measures execution time at each way allocation for the
// given thread count (one series of Figure 2). The sweep runs as one
// batch across the engine's workers.
func (c *Context) CapacityCurve(app *workload.Profile, threads int) map[int]float64 {
	return c.capacities(app, c.R.RunBatch(c.capacitySpecs(app, threads)))
}

// capacities reads one application's capacity curve from the results
// of its capacitySpecs.
func (c *Context) capacities(app *workload.Profile, res []*machine.Result) map[int]float64 {
	out := make(map[int]float64, len(c.WayPoints))
	for i, w := range c.WayPoints {
		out[w] = res[i].JobByName(app.Name).Seconds
	}
	return out
}

// capacityDemandWays returns the smallest allocation (ignoring the
// pathological direct-mapped 1-way case, §3.2) whose execution time is
// within 5% of the full-cache time — the "capacity to reach 95% of max
// performance" used for the working-set census.
func capacityDemandWays(curve map[int]float64, wayPoints []int) int {
	full := curve[wayPoints[len(wayPoints)-1]]
	for _, w := range wayPoints {
		if w == 1 {
			continue
		}
		if curve[w] <= full*1.05 {
			return w
		}
	}
	return wayPoints[len(wayPoints)-1]
}

// classifyUtility applies Table 2's categories: low utility if the
// whole curve is nearly flat (capacity buys <10% end to end), high if
// the application is still gaining at the top of the range (capacity
// demand of 10+ ways), saturated in between.
func classifyUtility(curve map[int]float64, wayPoints []int) UtilityClass {
	full := curve[wayPoints[len(wayPoints)-1]]
	if w2, ok := curve[2]; ok && w2 < full*1.10 {
		return UtilLow
	}
	if capacityDemandWays(curve, wayPoints) >= 10 {
		return UtilHigh
	}
	return UtilSaturated
}

// Fig2LLCSensitivity reproduces Figure 2: execution time vs LLC
// allocation for the three §3.2 exemplars at 1/2/4/8 threads.
func (c *Context) Fig2LLCSensitivity() *Table {
	var rows [][]string // each series' app and thread cells
	var sweeps [][]sched.Spec
	for _, name := range []string{"swaptions", "tomcat", "471.omnetpp"} {
		app := workload.MustByName(name)
		for _, th := range []int{1, 2, 4, 8} {
			if th <= app.MaxThreads {
				rows = append(rows, []string{name, fmt.Sprintf("%d", th)})
				sweeps = append(sweeps, c.capacitySpecs(app, th))
			}
		}
	}

	t := &Table{Title: "Figure 2: execution time (ms, 4 significant digits) vs LLC allocation"}
	t.Columns = []string{"app", "threads"}
	for _, w := range c.WayPoints {
		t.Columns = append(t.Columns, fmt.Sprintf("%.1fMB", float64(w)*0.5))
	}
	for i, res := range c.runSweeps(sweeps) {
		row := rows[i]
		for _, r := range res {
			row = append(row, strconv.FormatFloat(r.JobByName(row[0]).Seconds*1e3, 'g', 4, 64))
		}
		t.Add(row...)
	}
	t.Note("paper: 0.5MB direct-mapped always detrimental; low/saturated/high utility exemplars; no sharp knees")
	return t
}

// Table2Result carries the Table 2 classification plus the working-set
// census the paper derives from it.
type Table2Result struct {
	Table   *Table
	Classes map[string]UtilityClass
	// DemandMB is each app's measured capacity demand in MB.
	DemandMB map[string]float64
	// Census fractions (§3.2): share of apps needing <=1MB and <=3MB.
	FracUnder1MB, FracUnder3MB float64
}

// Table2LLCUtility reproduces Table 2: LLC utility classes with the
// >10-accesses-per-kilo-instruction highlight, plus the capacity census.
func (c *Context) Table2LLCUtility() *Table2Result {
	t := &Table{Title: "Table 2: LLC utility classes (* = >10 LLC accesses per kilo-instruction)",
		Columns: []string{"app", "suite", "demandMB", "LLC APKI", "class"}}
	res := &Table2Result{
		Table:    t,
		Classes:  map[string]UtilityClass{},
		DemandMB: map[string]float64{},
	}
	// Per application: the way sweep at 4 threads, then the full-cache
	// run whose LLC accesses the table reports.
	sweeps := make([][]sched.Spec, len(c.Apps))
	for i, app := range c.Apps {
		threads := sched.CapThreads(app, 4)
		sweeps[i] = append(c.capacitySpecs(app, threads), sched.SingleSpec{App: app, Threads: threads})
	}

	n1, n3 := 0, 0
	for i, runs := range c.runSweeps(sweeps) {
		app := c.Apps[i]
		curve := c.capacities(app, runs)
		cl := classifyUtility(curve, c.WayPoints)
		demand := float64(capacityDemandWays(curve, c.WayPoints)) * 0.5
		apki := runs[len(c.WayPoints)].JobByName(app.Name).LLCAPKI
		res.Classes[app.Name] = cl
		res.DemandMB[app.Name] = demand
		if demand <= 1 {
			n1++
		}
		if demand <= 3 {
			n3++
		}
		name := app.Name
		if apki > 10 {
			name += " *"
		}
		t.Add(name, app.Suite, f(demand), f(apki), string(cl))
	}
	res.FracUnder1MB = float64(n1) / float64(len(c.Apps))
	res.FracUnder3MB = float64(n3) / float64(len(c.Apps))
	t.Note("capacity census: %.0f%% of apps need <=1MB, %.0f%% need <=3MB (paper: 44%% and 78%%)",
		res.FracUnder1MB*100, res.FracUnder3MB*100)
	return res
}

// prefetchSpecs lists one application's Figure 3 pair: all prefetchers
// on, all off.
func prefetchSpecs(app *workload.Profile) []sched.Spec {
	off := prefetch.AllOff()
	return []sched.Spec{
		sched.SingleSpec{App: app, Threads: 4},
		sched.SingleSpec{App: app, Threads: 4, Prefetch: &off},
	}
}

// PrefetchSensitivity returns time(all prefetchers on)/time(all off)
// for one application at 4 threads (one bar of Figure 3).
func (c *Context) PrefetchSensitivity(app *workload.Profile) float64 {
	return prefetchRatio(app, c.R.RunBatch(prefetchSpecs(app)))
}

// prefetchRatio reads one bar of Figure 3 from the results of
// prefetchSpecs.
func prefetchRatio(app *workload.Profile, res []*machine.Result) float64 {
	return res[0].JobByName(app.Name).Seconds / res[1].JobByName(app.Name).Seconds
}

// Fig3Prefetchers reproduces Figure 3: normalized execution time with
// all prefetchers enabled relative to all disabled.
func (c *Context) Fig3Prefetchers() *Table {
	sweeps := make([][]sched.Spec, len(c.Apps))
	for i, app := range c.Apps {
		sweeps[i] = prefetchSpecs(app)
	}

	t := &Table{Title: "Figure 3: time with prefetchers on / off",
		Columns: []string{"app", "suite", "on/off"}}
	sensitive := 0
	for i, res := range c.runSweeps(sweeps) {
		app := c.Apps[i]
		r := prefetchRatio(app, res)
		if r < 0.95 || r > 1.05 {
			sensitive++
		}
		t.Add(app.Name, app.Suite, f(r))
	}
	t.Note("%d of %d apps sensitive (>5%% change); paper: ~10 of 46, mostly SPEC FP streamers",
		sensitive, len(c.Apps))
	return t
}

// bandwidthSpecs lists one application's Figure 4 runs: the alone
// baseline and the run against the bandwidth hog. Nil for the hog
// itself (not part of the figure).
func bandwidthSpecs(app *workload.Profile) []sched.Spec {
	hog := workload.MustByName("stream_uncached")
	if app.Name == hog.Name {
		return nil
	}
	return []sched.Spec{
		sched.AloneHalfSpec(app),
		sched.PairSpec{Fg: app, Bg: hog, Mode: sched.BackgroundLoop},
	}
}

// BandwidthSensitivity returns the slowdown of app (4 threads, cores
// 0-1) when stream_uncached hogs the memory system from core 2 (one bar
// of Figure 4).
func (c *Context) BandwidthSensitivity(app *workload.Profile) float64 {
	return bandwidthSlowdown(app, c.R.RunBatch(bandwidthSpecs(app)))
}

// bandwidthSlowdown reads one bar of Figure 4 from the results of
// bandwidthSpecs.
func bandwidthSlowdown(app *workload.Profile, res []*machine.Result) float64 {
	if len(res) == 0 {
		return 1 // the hog against itself is not part of the figure
	}
	return res[1].JobByName(app.Name).Seconds / res[0].JobByName(app.Name).Seconds
}

// Fig4Bandwidth reproduces Figure 4: execution-time increase when
// co-running with the bandwidth-hog microbenchmark.
func (c *Context) Fig4Bandwidth() *Table {
	sweeps := make([][]sched.Spec, len(c.Apps))
	for i, app := range c.Apps {
		sweeps[i] = bandwidthSpecs(app)
	}

	t := &Table{Title: "Figure 4: slowdown vs stream_uncached bandwidth hog",
		Columns: []string{"app", "suite", "slowdown"}}
	for i, res := range c.runSweeps(sweeps) {
		app := c.Apps[i]
		t.Add(app.Name, app.Suite, f(bandwidthSlowdown(app, res)))
	}
	t.Note("paper: SPEC FP streamers and the parallel applications suffer most (up to 3.8x); DaCapo barely affected")
	return t
}
