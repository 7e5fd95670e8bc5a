// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver submits its whole sweep to a shared
// sched.Runner as one batch (memoized, so drivers reuse each other's
// runs), reads every cell from the results, and renders a text table
// with the same rows/series the paper reports.
// EXPERIMENTS.md records paper-vs-measured for each driver.
package experiments

import (
	"fmt"
	"slices"

	"repro/internal/machine"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Context carries the shared runner and experiment scope.
type Context struct {
	R *sched.Runner

	// Apps is the application set under study (default: full catalog).
	Apps []*workload.Profile

	// Reps are the consolidation-study applications (default: the six
	// Table 3 representatives).
	Reps []*workload.Profile

	// ThreadPoints are the thread counts swept in Figure 1.
	ThreadPoints []int

	// WayPoints are the LLC allocations swept in Figure 2/Table 2.
	WayPoints []int
}

// NewContext builds a full-scope context over a runner with the given
// engine options (scale, parallelism, persistent cache dir, ...).
// Contexts at any parallelism render byte-identical tables; only host
// time differs.
func NewContext(opt sched.Options) *Context {
	return &Context{
		R:            sched.New(opt),
		Apps:         workload.All(),
		Reps:         workload.Representatives(),
		ThreadPoints: []int{1, 2, 3, 4, 5, 6, 7, 8},
		WayPoints:    []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
	}
}

// NewQuickContext is NewContext at reduced scope for tests and benches:
// representative apps only, coarser sweeps.
func NewQuickContext(opt sched.Options) *Context {
	c := NewContext(opt)
	c.Apps = c.Reps
	c.ThreadPoints = []int{1, 2, 4, 8}
	c.WayPoints = []int{1, 2, 4, 6, 8, 10, 12}
	return c
}

// runSweeps runs every sweep in one batch and returns each sweep's
// results. Drivers list a figure's whole sweep this way and read every
// table cell from what the batch returns, so a figure costs one batch
// and its memo hits count only duplicate specs and runs an earlier
// figure already made.
func (c *Context) runSweeps(sweeps [][]sched.Spec) [][]*machine.Result {
	results := c.R.RunBatch(slices.Concat(sweeps...))
	out := make([][]*machine.Result, len(sweeps))
	for i, s := range sweeps {
		out[i], results = results[:len(s)], results[len(s):]
	}
	return out
}

// pairMix describes the §5 co-run shape — a 4-thread latency-sensitive
// foreground with a 4-thread co-runner, packed onto disjoint core
// halves — as a declarative scenario. fgWays/bgWays of 0/0 leave the
// LLC shared; a non-zero split pins the foreground to the low ways and
// the co-runner to the high ways. once=true runs the co-runner to
// completion instead of looping (the §5.3 consolidation accounting).
func pairMix(assoc int, fg, bg *workload.Profile, fgWays, bgWays int, once bool) *scenario.Scenario {
	loop := !once
	s := &scenario.Scenario{
		Name: "pair",
		Jobs: []scenario.JobDef{
			{App: fg.Name, Role: scenario.RoleLatency, Threads: 4},
			{App: bg.Name, Role: scenario.RoleBatch, Threads: 4, Loop: &loop},
		},
	}
	if fgWays > 0 || bgWays > 0 {
		s.Partition.Policy = scenario.PolicyRef{Name: scenario.PartitionExplicit}
		s.Jobs[0].Ways = &[2]int{0, fgWays}
		s.Jobs[1].Ways = &[2]int{assoc - bgWays, assoc}
	}
	return s
}

// pairRun compiles the §5 pair shape down to the engine's mix spec.
// The compiled mix reduces to the same memo entry as sched.PairSpec's
// mix, so scenario-expressed drivers dedup against the partition plans
// (partition.PairPlan) and each other.
func (c *Context) pairRun(fg, bg *workload.Profile, fgWays, bgWays int, once bool) sched.Spec {
	cfg := c.R.MachineConfig()
	mix, err := pairMix(cfg.Hier.LLC.Assoc, fg, bg, fgWays, bgWays, once).Compile(cfg)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return mix
}

// multiRun compiles the §6.3 multi-peer shape — the foreground with n
// continuously-looping copies of bg, one core each — as a scenario.
func (c *Context) multiRun(fg, bg *workload.Profile, n int) sched.Spec {
	s := &scenario.Scenario{
		Name: "multi",
		Jobs: []scenario.JobDef{{App: fg.Name, Role: scenario.RoleLatency, Threads: 4}},
	}
	for i := 0; i < n; i++ {
		// Explicit bg<i> seeds match the engine's multi-peer naming even
		// for a single copy (the lone-co-runner default would be "bg").
		s.Jobs = append(s.Jobs, scenario.JobDef{
			App: bg.Name, Role: scenario.RoleBatch, Threads: 2,
			Seed: fmt.Sprintf("bg%d", i),
		})
	}
	mix, err := s.Compile(c.R.MachineConfig())
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return mix
}

// threadsFor caps a requested operating point by the application's
// parallelism. Delegating to the engine's rule keeps planned batch
// specs aligned with what each spec's execution will actually run.
func threadsFor(app *workload.Profile, want int) int {
	return sched.CapThreads(app, want)
}

// f formats a float compactly for table cells.
func f(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 100:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// pct formats a ratio as a signed percentage ("+12.3%").
func pct(ratio float64) string {
	return fmt.Sprintf("%+.1f%%", (ratio-1)*100)
}
