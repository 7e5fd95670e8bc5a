package partition

import (
	"encoding/json"
	"testing"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/workload"
)

// priceBiased prices the biased policy under params on the §5 pair
// through PairPlan, one RunBatch (fg's alone baseline and the sweep)
// and Harvest, and returns the outcome with fg's alone time.
func priceBiased(t *testing.T, r *sched.Runner, params string, fg, bg *workload.Profile) (Outcome, float64) {
	t.Helper()
	plan, err := PairPlan(MustNew("biased", json.RawMessage(params)), machine.Default(), r.Scale(), fg, bg)
	if err != nil {
		t.Fatal(err)
	}
	results := r.RunBatch(append([]sched.Spec{sched.AloneHalfSpec(fg)}, plan.Specs()...))
	alone := results[0].Jobs[0].Seconds
	return plan.Harvest(results[1:], alone), alone
}

func TestBestForForegroundIsProtective(t *testing.T) {
	r := sched.New(sched.Options{Scale: 1e-3})
	fg := workload.MustByName("429.mcf") // cache-hungry foreground
	bg := workload.MustByName("ferret")
	ch, alone := priceBiased(t, r, `{"rule":"foreground"}`, fg, bg)
	if ch.Ways(0)+ch.Ways(1) != 12 {
		t.Fatalf("split %d+%d", ch.Ways(0), ch.Ways(1))
	}
	// For a cache-hungry foreground against a cache-light background,
	// the fg-optimal split must grant the foreground a large share.
	if ch.LatencyWays < 8 {
		t.Fatalf("fg-optimal allocation gave mcf only %d ways", ch.LatencyWays)
	}
	if ch.Main.Jobs[0].Seconds/alone <= 0 || ch.Main.Jobs[1].Iterations <= 0 {
		t.Fatalf("degenerate choice: %+v", ch.Main.Jobs)
	}
}

func TestBestForForegroundVsBestBiased(t *testing.T) {
	// The Figure 13 baseline breaks ties toward the foreground; the
	// Figure 9 biased policy breaks ties toward background throughput.
	// The foreground-greedy choice must never grant FEWER ways than a
	// tied background-friendly one would lose performance over.
	r := sched.New(sched.Options{Scale: 1e-3})
	fg := workload.MustByName("ferret") // cache-indifferent: all splits tie
	bg := workload.MustByName("fop")
	greedy, _ := priceBiased(t, r, `{"rule":"foreground"}`, fg, bg)
	biased, _ := priceBiased(t, r, "", fg, bg)
	if greedy.LatencyWays < biased.LatencyWays {
		t.Fatalf("fg-greedy split (%d ways) smaller than bg-friendly biased (%d ways)",
			greedy.LatencyWays, biased.LatencyWays)
	}
}
