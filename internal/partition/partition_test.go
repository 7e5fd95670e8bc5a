package partition

import (
	"reflect"
	"testing"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestPolicyNames(t *testing.T) {
	for _, want := range []string{"shared", "fair", "biased", "dynamic", "explicit", "utility"} {
		p, err := New(want, nil)
		if err != nil {
			t.Fatalf("New(%q): %v", want, err)
		}
		if p.Name() != want {
			t.Errorf("New(%q).Name() = %q", want, p.Name())
		}
	}
}

// TestPairWays: an offline plan on the pair shape carries its static
// split as way ranges — shared leaves the cache whole, fair halves it.
func TestPairWays(t *testing.T) {
	cfg := machine.Default()
	fg, bg := workload.MustByName("fop"), workload.MustByName("dedup")
	for name, want := range map[string][][2]int{
		"shared": {{0, 0}, {0, 0}},
		"fair":   {{0, 6}, {6, 12}},
	} {
		plan, err := PairPlan(MustNew(name, nil), cfg, 0, fg, bg)
		if err != nil {
			t.Fatal(err)
		}
		if got := plan.Ranges(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s ranges = %v, want %v", name, got, want)
		}
	}
}

func TestStaticPoliciesOrder(t *testing.T) {
	ps := StaticPolicies()
	if len(ps) != 3 || ps[0].Name() != "shared" || ps[1].Name() != "fair" || ps[2].Name() != "biased" {
		t.Fatalf("StaticPolicies() = %v", ps)
	}
}

func TestBestBiasedSearch(t *testing.T) {
	r := sched.New(sched.Options{Scale: 1e-3})
	fg := workload.MustByName("429.mcf")
	bg := workload.MustByName("ferret")
	ch, fgAlone := priceBiased(t, r, "", fg, bg)
	if ch.LatencyWays < 1 || ch.LatencyWays > 11 || ch.Ways(0)+ch.Ways(1) != 12 {
		t.Fatalf("biased split %d+%d", ch.Ways(0), ch.Ways(1))
	}
	if ch.Main.Jobs[1].Iterations <= 0 {
		t.Fatal("biased choice recorded no background progress")
	}
	// mcf is cache-hungry: the chosen foreground share should not be
	// tiny when paired with a cache-indifferent background.
	if ch.LatencyWays < 3 {
		t.Fatalf("mcf granted only %d ways against ferret", ch.LatencyWays)
	}
	// The choice must beat or match fair partitioning for the fg.
	fair := r.Run(sched.PairSpec{Fg: fg, Bg: bg, FgWays: 6, BgWays: 6,
		Mode: sched.BackgroundLoop}).JobByName(fg.Name).Seconds / fgAlone
	if sd := ch.Main.Jobs[0].Seconds / fgAlone; sd > fair*1.02 {
		t.Fatalf("biased slowdown %v worse than fair %v", sd, fair)
	}
}

// TestBestBiasedSmallLLC: the search sweeps the LLC of the platform
// its specs name. On the small-LLC ablation platform (2 MB, 8 ways),
// run on a default runner, fg's alone baseline and the biased plan's
// specs are the baseline and 7 splits, and the plan's Harvest picks
// the searcher's choice over that sweep, a split in [1,7].
func TestBestBiasedSmallLLC(t *testing.T) {
	cfg := machine.Default()
	cfg.Hier.LLC.SizeBytes = 2 << 20
	cfg.Hier.LLC.Assoc = 8
	r := sched.New(sched.Options{Scale: 3e-4})
	fg := workload.MustByName("429.mcf")
	bg := workload.MustByName("ferret")

	plan, err := PairPlan(MustNew("biased", nil), cfg, r.Scale(), fg, bg)
	if err != nil {
		t.Fatal(err)
	}
	specs := append([]sched.Spec{sched.AloneHalfSpec(fg).Mix(cfg)}, plan.Specs()...)
	if len(specs) != 8 {
		t.Fatalf("%d search specs, want the baseline plus 7 splits", len(specs))
	}
	results := r.RunBatch(specs)
	if small, def := results[0], r.Run(sched.AloneHalfSpec(fg)); small.Jobs[0].Seconds == def.Jobs[0].Seconds {
		t.Fatal("the baseline ran on the default platform, not the 8-way one")
	}
	alone := results[0].Jobs[0].Seconds
	var cands []Candidate
	for w := 1; w < 8; w++ {
		res := results[w]
		if got := res.Jobs[0]; got.Seconds <= 0 {
			t.Fatalf("split %d: degenerate run", w)
		}
		cands = append(cands, Candidate{
			FgWays:       w,
			FgSlowdown:   res.Jobs[0].Seconds / alone,
			BgThroughput: res.Jobs[1].Iterations,
		})
	}
	out := plan.Harvest(results[1:], alone)
	if out.LatencyWays < 1 || out.LatencyWays > 7 {
		t.Fatalf("split %d ways on an 8-way LLC", out.LatencyWays)
	}
	if want := cands[PickBiased(cands)].FgWays; out.LatencyWays != want {
		t.Fatalf("the plan chose %d ways, Pick over the 8-way sweep chose %d", out.LatencyWays, want)
	}
}

// TestPlanPairPolicies prices every registered policy on the §5 pair:
// each yields a run with foreground and background progress, static
// policies report their split, and the searched and online allocations
// stay inside the cache.
func TestPlanPairPolicies(t *testing.T) {
	r := sched.New(sched.Options{Scale: 5e-4})
	fg := workload.MustByName("fop")
	bg := workload.MustByName("dedup")
	alone := r.Run(sched.AloneHalfSpec(fg)).Jobs[0].Seconds
	for _, name := range Names() {
		plan, err := PairPlan(MustNew(name, nil), machine.Default(), r.Scale(), fg, bg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := plan.Harvest(r.RunBatch(plan.Specs()), alone)
		if out.Main.Jobs[0].Seconds <= 0 || out.Main.Jobs[1].Iterations <= 0 {
			t.Fatalf("%s: %+v", name, out.Main.Jobs)
		}
		fgW, bgW := out.Ways(0), out.Ways(1)
		switch name {
		case "shared", "explicit":
			if fgW != 0 || bgW != 0 {
				t.Fatalf("%s reported ways %d/%d", name, fgW, bgW)
			}
		case "fair":
			if fgW != 6 || bgW != 6 {
				t.Fatalf("fair reported ways %d/%d", fgW, bgW)
			}
		default: // biased, dynamic, utility
			if fgW < 1 || fgW > 11 || out.LatencyWays != fgW {
				t.Fatalf("%s fg ways %d (latency ways %d)", name, fgW, out.LatencyWays)
			}
		}
	}
}

// TestPlanDynamicReallocates: the dynamic plan on a phased foreground
// reports the loop's reallocations and final grant in its outcome.
func TestPlanDynamicReallocates(t *testing.T) {
	r := sched.New(sched.Options{Scale: 1e-3})
	fg := workload.MustByName("429.mcf")
	plan, err := PairPlan(MustNew("dynamic", nil), machine.Default(), r.Scale(), fg, workload.MustByName("ferret"))
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Harvest(r.RunBatch(plan.Specs()), 0)
	if out.Reallocations == 0 {
		t.Fatal("dynamic policy never reallocated on a phased foreground")
	}
	if len(out.FinalWays) != 2 || out.LatencyWays != out.FinalWays[0] {
		t.Fatalf("final ways %v, latency ways %d", out.FinalWays, out.LatencyWays)
	}
}
