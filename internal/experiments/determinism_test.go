package experiments

import (
	"testing"

	"repro/internal/sched"
)

// quickAt builds a reduced-scope context with an explicit worker count.
// The scope is deliberately tiny (two representatives, reduced scale):
// the test renders everything twice and runs under -race in CI.
func quickAt(parallelism int) *Context {
	c := NewQuickContext(sched.Options{Scale: 3e-4, Parallelism: parallelism})
	c.Reps = c.Reps[:2]
	c.Apps = c.Reps
	return c
}

// TestTablesByteIdenticalAcrossParallelism is the acceptance criterion
// for the concurrent engine: rendering the same experiments with 1 and
// with 8 workers must produce byte-identical text. The set covers the
// main driver shapes — a thread sweep assembled from batched singles, a
// pair heatmap consumed directly from batch results, a policy study
// with a nested biased search, the batched Setup-hook runs of the
// phase study (samplers and the dynamic controller), and the small-LLC
// ablation, whose batches mix two platforms.
func TestTablesByteIdenticalAcrossParallelism(t *testing.T) {
	render := func(c *Context) map[string]string {
		return map[string]string{
			"fig1":      c.Fig1ThreadScalability().String(),
			"fig8":      c.Fig8Heatmap(c.Reps, c.Reps).Table.String(),
			"fig9":      c.Fig9StaticPolicies().Table.String(),
			"fig12":     c.Fig12Phases().String(),
			"small-llc": c.AblationSmallLLC().String(),
		}
	}
	serial := render(quickAt(1))
	parallel := render(quickAt(8))
	for name, want := range serial {
		if got := parallel[name]; got != want {
			t.Errorf("%s: parallel rendering diverged from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
				name, want, got)
		}
	}
}
