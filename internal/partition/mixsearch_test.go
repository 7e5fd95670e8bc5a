package partition

import (
	"reflect"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

func TestSplitWays(t *testing.T) {
	cases := []struct {
		assoc, n int
		want     [][2]int
	}{
		{12, 2, [][2]int{{0, 6}, {6, 12}}},
		{12, 4, [][2]int{{0, 3}, {3, 6}, {6, 9}, {9, 12}}},
		{12, 5, [][2]int{{0, 3}, {3, 6}, {6, 8}, {8, 10}, {10, 12}}},
		{12, 12, nil}, // every job one way
	}
	for _, c := range cases {
		got := SplitWays(c.assoc, c.n)
		if c.want != nil && !reflect.DeepEqual(got, c.want) {
			t.Errorf("SplitWays(%d,%d) = %v, want %v", c.assoc, c.n, got, c.want)
		}
		// Shares must tile the cache exactly.
		first := 0
		for _, r := range got {
			if r[0] != first || r[1] <= r[0] {
				t.Fatalf("SplitWays(%d,%d) = %v: non-contiguous", c.assoc, c.n, got)
			}
			first = r[1]
		}
		if first != c.assoc {
			t.Fatalf("SplitWays(%d,%d) covers %d ways", c.assoc, c.n, first)
		}
	}
}

func TestPickBiasedCriterion(t *testing.T) {
	cands := []Candidate{
		{FgWays: 1, FgSlowdown: 1.20, BgThroughput: 9},
		{FgWays: 2, FgSlowdown: 1.001, BgThroughput: 5}, // within eps of min, best bg
		{FgWays: 3, FgSlowdown: 1.000, BgThroughput: 3}, // the strict minimum
		{FgWays: 4, FgSlowdown: 1.05, BgThroughput: 8},
	}
	if got := PickBiased(cands); got != 1 {
		t.Fatalf("PickBiased = %d, want tie broken by bg throughput (1)", got)
	}
	if got := PickForForeground(cands); got != 2 {
		t.Fatalf("PickForForeground = %d, want strict-min index 2", got)
	}
	// Equal slowdowns: the larger share wins for the foreground rule.
	flat := []Candidate{
		{FgWays: 1, FgSlowdown: 1.01, BgThroughput: 4},
		{FgWays: 2, FgSlowdown: 1.01, BgThroughput: 2},
	}
	if got := PickForForeground(flat); got != 1 {
		t.Fatalf("PickForForeground flat = %d, want larger share (1)", got)
	}
}

// TestBestBiasedJobList: the biased plan over a foreground plus two
// peers (the §6.3 multi-peer shape as a mix) sweeps every
// latency-vs-rest split, the peers sharing the high ways, and returns
// a sane split.
func TestBestBiasedJobList(t *testing.T) {
	r := sched.New(sched.Options{Scale: 3e-4})
	cfg := r.MachineConfig()
	fg := workload.MustByName("429.mcf")
	bg := workload.MustByName("ferret")
	mix := sched.MixSpec{Jobs: []sched.MixJob{
		{App: fg, Threads: 4, Slots: cfg.SlotsForCores(0, 1), Seed: "fg"},
		{App: bg, Threads: 2, Slots: cfg.SlotsForCores(2), Background: true, Seed: "bg0"},
		{App: bg, Threads: 2, Slots: cfg.SlotsForCores(3), Background: true, Seed: "bg1"},
	}}
	plan, err := NewPlan(MustNew("biased", nil), Mix{Spec: mix, Latency: []bool{true, false, false}}, cfg, r.Scale())
	if err != nil {
		t.Fatal(err)
	}
	specs := plan.Specs()
	if len(specs) != 11 {
		t.Fatalf("%d search specs, want 11 splits", len(specs))
	}
	alone := r.Run(sched.AloneHalfSpec(fg)).Jobs[0].Seconds
	out := plan.Harvest(r.RunBatch(specs), alone)
	w := out.LatencyWays
	if w < 1 || w > 11 {
		t.Fatalf("choice: %d ways", w)
	}
	want := [][2]int{{0, w}, {w, 12}, {w, 12}}
	if !reflect.DeepEqual(out.Ranges, want) {
		t.Fatalf("ranges %v, want %v", out.Ranges, want)
	}
	if out.Main.Jobs[1].Iterations+out.Main.Jobs[2].Iterations <= 0 {
		t.Fatalf("no background progress: %+v", out.Main.Jobs)
	}
}
