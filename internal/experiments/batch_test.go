package experiments

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/sched"
)

// TestFiguresReadTheirBatch: every driver submits its whole sweep as
// one batch and reads each cell from the results, so on a fresh traced
// context a figure records one batch span (Figures 10/11 record two:
// the second stage runs at the splits the first one chose), and a
// sweep without a duplicate spec reports no memo hits.
func TestFiguresReadTheirBatch(t *testing.T) {
	for _, d := range []struct {
		name    string
		batches int
		run     func(c *Context)
	}{
		{"fig1", 1, func(c *Context) { c.Fig1ThreadScalability() }},
		{"table1", 1, func(c *Context) { c.Table1Scalability() }},
		{"fig2", 1, func(c *Context) { c.Fig2LLCSensitivity() }},
		{"table2", 1, func(c *Context) { c.Table2LLCUtility() }},
		{"fig3", 1, func(c *Context) { c.Fig3Prefetchers() }},
		{"fig4", 1, func(c *Context) { c.Fig4Bandwidth() }},
		{"fig5", 1, func(c *Context) { c.Fig5Clustering() }},
		{"fig6", 1, func(c *Context) { c.Fig6AllocationSpace() }},
		{"fig7", 1, func(c *Context) { c.Fig7YieldableCapacity() }},
		{"fig8", 1, func(c *Context) { c.Fig8Heatmap(nil, nil) }},
		{"fig9", 1, func(c *Context) { c.Fig9StaticPolicies() }},
		{"fig10and11", 2, func(c *Context) { c.Fig10and11Consolidation() }},
		{"fig12", 1, func(c *Context) { c.Fig12Phases() }},
		{"fig13", 1, func(c *Context) { c.Fig13DynamicThroughput() }},
		{"abl-prefetchers", 1, func(c *Context) { c.AblationPrefetchers() }},
		{"abl-multibg", 1, func(c *Context) { c.AblationMultiBackground() }},
	} {
		tr := obs.New(0)
		c := quickAt(2)
		c.R = sched.New(sched.Options{Scale: c.R.Scale(), Parallelism: 2, Tracer: tr})
		d.run(c)
		batches := 0
		for _, rec := range tr.Snapshot() {
			if rec.Name == "batch" {
				batches++
			}
		}
		if batches != d.batches {
			t.Errorf("%s: %d batches, want %d", d.name, batches, d.batches)
		}
		if hits := c.R.Stats().MemoHits; (d.name == "fig2" || d.name == "fig6") && hits != 0 {
			t.Errorf("%s: %d memo hits on a sweep without duplicate specs", d.name, hits)
		}
	}
}
