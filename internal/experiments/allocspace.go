package experiments

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/workload"
)

// AllocationPoint is one of the 96 resource allocations of Figure 6.
type AllocationPoint struct {
	Threads, Ways int
	Seconds       float64
	MPKI          float64
	SocketJoules  float64
	WallJoules    float64
}

// allocationSpecs lists the thread × way grid of Figure 6 for one
// application, with the grid coordinates alongside.
func allocationSpecs(app *workload.Profile, threadPoints, wayPoints []int) ([]sched.Spec, [][2]int) {
	var specs []sched.Spec
	var coords [][2]int
	for _, th := range threadPoints {
		if th > app.MaxThreads && th != 1 {
			continue
		}
		for _, w := range wayPoints {
			specs = append(specs, sched.SingleSpec{App: app, Threads: th, Ways: w})
			coords = append(coords, [2]int{th, w})
		}
	}
	return specs, coords
}

// AllocationSpace sweeps every thread × way allocation for one
// application (Figure 6's scatter data). The whole grid runs as one
// batch; points come back in grid order.
func (c *Context) AllocationSpace(app *workload.Profile, threadPoints, wayPoints []int) []AllocationPoint {
	specs, coords := allocationSpecs(app, threadPoints, wayPoints)
	return allocationPoints(app, coords, c.R.RunBatch(specs))
}

// allocationPoints reads one application's grid from the results of
// its allocationSpecs.
func allocationPoints(app *workload.Profile, coords [][2]int, results []*machine.Result) []AllocationPoint {
	out := make([]AllocationPoint, len(results))
	for i, res := range results {
		j := res.JobByName(app.Name)
		out[i] = AllocationPoint{
			Threads: coords[i][0], Ways: coords[i][1],
			Seconds:      j.Seconds,
			MPKI:         j.LLCMPKI,
			SocketJoules: res.Energy.SocketJoules,
			WallJoules:   res.Energy.WallJoules,
		}
	}
	return out
}

// allocationGrids runs every representative's full allocation grid
// (Figures 6 and 7) as one batch and returns the grids in c.Reps order.
func (c *Context) allocationGrids() [][]AllocationPoint {
	sweeps := make([][]sched.Spec, len(c.Reps))
	coords := make([][][2]int, len(c.Reps))
	for i, app := range c.Reps {
		sweeps[i], coords[i] = allocationSpecs(app, c.ThreadPoints, c.WayPoints)
	}
	grids := make([][]AllocationPoint, len(c.Reps))
	for i, res := range c.runSweeps(sweeps) {
		grids[i] = allocationPoints(c.Reps[i], coords[i], res)
	}
	return grids
}

// Fig6AllocationSpace reproduces Figure 6: runtime, MPKI, socket and
// wall energy for the full allocation grid of each representative.
func (c *Context) Fig6AllocationSpace() *Table {
	t := &Table{Title: "Figure 6: allocation space of the cluster representatives",
		Columns: []string{"app", "threads", "ways", "time(s)", "MPKI", "socket(J)", "wall(J)"}}
	for i, pts := range c.allocationGrids() {
		for _, p := range pts {
			t.Add(c.Reps[i].Name, fmt.Sprintf("%d", p.Threads), fmt.Sprintf("%d", p.Ways),
				fmt.Sprintf("%.4f", p.Seconds), f(p.MPKI),
				fmt.Sprintf("%.2f", p.SocketJoules), fmt.Sprintf("%.2f", p.WallJoules))
		}
	}
	t.Note("paper: race-to-halt is the optimal energy strategy; many allocations are near-optimal, leaving spare resources")
	return t
}

// Fig7YieldableCapacity reproduces the takeaway of Figure 7's contour
// plots: for each representative, the energy-optimal allocation and how
// much LLC it can yield without leaving the near-optimal region.
func (c *Context) Fig7YieldableCapacity() *Table {
	t := &Table{Title: "Figure 7: wall-energy-optimal allocations and yieldable LLC",
		Columns: []string{"app", "best threads", "best ways", "best wall(J)",
			"min ways within 2.5%", "yieldable MB"}}
	for i, pts := range c.allocationGrids() {
		best := pts[0]
		for _, p := range pts[1:] {
			if p.WallJoules < best.WallJoules {
				best = p
			}
		}
		// Smallest way count (at the best thread count) staying within
		// 2.5% of the optimal wall energy.
		minWays := best.Ways
		for _, p := range pts {
			if p.Threads != best.Threads || p.Ways == 1 {
				continue
			}
			if p.WallJoules <= best.WallJoules*1.025 && p.Ways < minWays {
				minWays = p.Ways
			}
		}
		yieldMB := float64(12-minWays) * 0.5
		t.Add(c.Reps[i].Name, fmt.Sprintf("%d", best.Threads), fmt.Sprintf("%d", best.Ways),
			fmt.Sprintf("%.2f", best.WallJoules), fmt.Sprintf("%d", minWays),
			fmt.Sprintf("%.1f", yieldMB))
	}
	t.Note("paper: every representative can yield 0.5MB (429.mcf) to 4MB (batik, ferret) of LLC without leaving the energy-optimal region")
	return t
}
