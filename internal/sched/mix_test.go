package sched

import (
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/workload"
)

// TestLegacySpecsShareMixCache: a PairSpec and the equivalent hand-built
// MixSpec must reduce to the same memo entry — the engine has one
// execution path and one key space.
func TestLegacySpecsShareMixCache(t *testing.T) {
	r := testRunner()
	fg := workload.MustByName("canneal")
	bg := workload.MustByName("ferret")
	cfg := machine.Default()

	pair := r.Run(PairSpec{Fg: fg, Bg: bg, FgWays: 8, BgWays: 4, Mode: BackgroundLoop})
	mix := r.RunMix(MixSpec{Jobs: []MixJob{
		{App: fg, Threads: 4, Slots: cfg.SlotsForCores(0, 1), Seed: "fg", WayFirst: 0, WayLim: 8},
		{App: bg, Threads: 4, Slots: cfg.SlotsForCores(2, 3), Background: true, Seed: "bg", WayFirst: 8, WayLim: 12},
	}})
	if pair != mix {
		t.Fatal("equivalent pair and mix specs did not share a memo entry")
	}
	st := r.Stats()
	if st.Simulations != 1 || st.MemoHits != 1 {
		t.Fatalf("sims=%d hits=%d, want 1 sim + 1 hit", st.Simulations, st.MemoHits)
	}
}

func TestMixNJobs(t *testing.T) {
	r := testRunner()
	cfg := machine.Default()
	mcf := workload.MustByName("429.mcf")
	apps := []string{"ferret", "dedup", "canneal"}

	// 1 latency-sensitive foreground + 3 looping batch peers, one core
	// each, fair 3-way... (fg 6 ways, peers 2 ways each of the rest).
	jobs := []MixJob{{App: mcf, Threads: 2, Slots: cfg.SlotsForCores(0), Seed: "fg", WayLim: 6}}
	for i, name := range apps {
		jobs = append(jobs, MixJob{
			App: workload.MustByName(name), Threads: 2,
			Slots: cfg.SlotsForCores(1 + i), Background: true,
			Seed: "bg" + string(rune('0'+i)), WayFirst: 6 + 2*i, WayLim: 8 + 2*i,
		})
	}
	res := r.RunMix(MixSpec{Jobs: jobs})
	if len(res.Jobs) != 4 {
		t.Fatalf("%d job results", len(res.Jobs))
	}
	if res.JobByName("429.mcf").Background {
		t.Fatal("foreground flagged background")
	}
	for _, name := range apps {
		j := res.JobByName(name)
		if !j.Background || j.Iterations <= 0 {
			t.Fatalf("peer %s: %+v", name, j)
		}
	}

	// Determinism: an identical mix on a fresh runner reproduces the
	// result exactly.
	res2 := New(Options{Scale: 5e-4}).RunMix(MixSpec{Jobs: jobs})
	if res.JobByName("429.mcf").Seconds != res2.JobByName("429.mcf").Seconds {
		t.Fatal("identical mixes diverged")
	}
}

func TestMixMachineOverride(t *testing.T) {
	big := machine.Default()
	big.Cores = 8
	big.Hier = machine.Default().Hier
	big.Hier.Cores = 8

	r := testRunner()
	app := workload.MustByName("swaptions")
	res := r.RunMix(MixSpec{
		Machine: &big,
		Jobs: []MixJob{{App: app, Threads: 8,
			Slots: big.SlotsForCores(0, 1, 2, 3), Seed: "single"}},
	})
	if res.JobByName("swaptions").Threads != 8 {
		t.Fatalf("threads = %d", res.JobByName("swaptions").Threads)
	}

	// The override must be part of the memo key: the same job list on
	// the default platform is a different configuration.
	def := r.RunMix(MixSpec{
		Jobs: []MixJob{{App: app, Threads: 8,
			Slots: machine.Default().SlotsForCores(0, 1, 2, 3), Seed: "single"}},
	})
	if def == res {
		t.Fatal("different platforms shared a memo entry")
	}
}

func TestMixInvalidPlacementPanics(t *testing.T) {
	r := testRunner()
	app := workload.MustByName("ferret")
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("overlapping mix placement accepted")
		}
		if s, ok := p.(string); !ok || !strings.Contains(s, "already occupied") {
			t.Fatalf("panic %v, want slot-occupied error", p)
		}
	}()
	r.RunMix(MixSpec{Jobs: []MixJob{
		{App: app, Threads: 2, Slots: []int{0, 1}, Seed: "a"},
		{App: app, Threads: 2, Slots: []int{1, 2}, Seed: "b"},
	}})
}
