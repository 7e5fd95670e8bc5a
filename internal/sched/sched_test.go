package sched

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/prefetch"
	"repro/internal/workload"
)

func testRunner() *Runner { return New(Options{Scale: 5e-4}) }

func TestRunSingleBasics(t *testing.T) {
	r := testRunner()
	app := workload.MustByName("ferret")
	res := r.Run(SingleSpec{App: app, Threads: 4})
	j := res.JobByName("ferret")
	if j.Seconds <= 0 || j.Threads != 4 {
		t.Fatalf("result: %+v", j)
	}
}

func TestRunSingleMemoized(t *testing.T) {
	r := testRunner()
	app := workload.MustByName("ferret")
	a := r.Run(SingleSpec{App: app, Threads: 4})
	b := r.Run(SingleSpec{App: app, Threads: 4})
	if a != b {
		t.Fatal("identical single runs not memoized")
	}
	c := r.Run(SingleSpec{App: app, Threads: 2})
	if a == c {
		t.Fatal("different thread counts shared a cache entry")
	}
}

func TestDisableCache(t *testing.T) {
	r := New(Options{Scale: 5e-4, DisableCache: true})
	app := workload.MustByName("swaptions")
	a := r.Run(SingleSpec{App: app, Threads: 1})
	b := r.Run(SingleSpec{App: app, Threads: 1})
	if a == b {
		t.Fatal("cache disabled but results shared")
	}
	if a.JobByName("swaptions").Seconds != b.JobByName("swaptions").Seconds {
		t.Fatal("determinism lost")
	}
}

func TestWaysAffectSingle(t *testing.T) {
	r := testRunner()
	app := workload.MustByName("471.omnetpp")
	full := r.Run(SingleSpec{App: app, Threads: 1}).JobByName(app.Name).Seconds
	one := r.Run(SingleSpec{App: app, Threads: 1, Ways: 1}).JobByName(app.Name).Seconds
	if one <= full {
		t.Fatalf("direct-mapped half-MB LLC (%v) not slower than full (%v)", one, full)
	}
}

func TestPrefetchOverride(t *testing.T) {
	r := testRunner()
	app := workload.MustByName("462.libquantum")
	on := r.Run(SingleSpec{App: app, Threads: 1}).JobByName(app.Name).Seconds
	off := prefetch.AllOff()
	offT := r.Run(SingleSpec{App: app, Threads: 1, Prefetch: &off}).JobByName(app.Name).Seconds
	if on >= offT {
		t.Fatalf("prefetchers did not help the pure stream: on=%v off=%v", on, offT)
	}
}

func TestRunPairPlacement(t *testing.T) {
	r := testRunner()
	fg := workload.MustByName("canneal")
	bg := workload.MustByName("ferret")
	res := r.Run(PairSpec{Fg: fg, Bg: bg, Mode: BackgroundLoop})
	if len(res.Jobs) != 2 {
		t.Fatalf("%d jobs", len(res.Jobs))
	}
	fgJ, bgJ := res.JobByName("canneal"), res.JobByName("ferret")
	if fgJ.Background || !bgJ.Background {
		t.Fatal("background flags wrong")
	}
	if bgJ.Iterations <= 0 {
		t.Fatal("background made no progress")
	}
}

func TestPairPartitionValidation(t *testing.T) {
	r := testRunner()
	fg := workload.MustByName("fop")
	bg := workload.MustByName("batik")
	defer func() {
		if recover() == nil {
			t.Fatal("oversubscribed partition accepted")
		}
	}()
	r.Run(PairSpec{Fg: fg, Bg: bg, FgWays: 8, BgWays: 8})
}

func TestPartitionProtectsForeground(t *testing.T) {
	// 429.mcf against a continuously-running canneal: the interference
	// is LLC capacity, so a biased partition must pull the foreground
	// back toward its alone time — the core claim of §5.2. (Bandwidth-
	// dominated pairs like canneal+streamcluster are NOT protected by
	// partitioning; the paper makes the same observation.)
	r := New(Options{Scale: 2e-3}) // interference needs warm caches
	fg := workload.MustByName("429.mcf")
	bg := workload.MustByName("canneal")
	alone := r.Run(AloneHalfSpec(fg)).JobByName(fg.Name).Seconds
	shared := r.Run(PairSpec{Fg: fg, Bg: bg, Mode: BackgroundLoop}).JobByName(fg.Name).Seconds
	part := r.Run(PairSpec{Fg: fg, Bg: bg, FgWays: 9, BgWays: 3, Mode: BackgroundLoop}).JobByName(fg.Name).Seconds
	if shared/alone < 1.1 {
		t.Fatalf("no interference to mitigate: shared/alone = %v", shared/alone)
	}
	if part >= shared*0.98 {
		t.Fatalf("partitioning did not help: partitioned=%v shared=%v", part, shared)
	}
}

func TestBothOnceMode(t *testing.T) {
	r := testRunner()
	fg := workload.MustByName("fop")
	bg := workload.MustByName("batik")
	res := r.Run(PairSpec{Fg: fg, Bg: bg, Mode: BothOnce})
	for _, j := range res.Jobs {
		if j.Background {
			t.Fatal("BothOnce ran a background job")
		}
		if j.Iterations != 1 {
			t.Fatalf("%s iterations = %v", j.Name, j.Iterations)
		}
	}
}

func TestAloneBaselines(t *testing.T) {
	r := testRunner()
	app := workload.MustByName("ferret")
	half := r.Run(AloneHalfSpec(app)).JobByName(app.Name)
	whole := r.Run(AloneWholeSpec(app)).JobByName(app.Name)
	if half.Threads != 4 || whole.Threads != 8 {
		t.Fatalf("baseline threads: half=%d whole=%d", half.Threads, whole.Threads)
	}
	if whole.Seconds >= half.Seconds {
		t.Fatal("scalable app not faster on the whole machine")
	}
}

func TestSetupHookRuns(t *testing.T) {
	r := testRunner()
	fg := workload.MustByName("fop")
	bg := workload.MustByName("batik")
	called := false
	mix := PairSpec{Fg: fg, Bg: bg, Mode: BackgroundLoop}.Mix(machine.Default())
	mix.Setup = func(m *machine.Machine, jobs []*machine.Job) {
		called = true
		if jobs[0].Name() != "fop" || jobs[1].Name() != "batik" {
			t.Errorf("setup hook jobs: %s, %s", jobs[0].Name(), jobs[1].Name())
		}
	}
	r.Run(mix)
	if !called {
		t.Fatal("setup hook not invoked")
	}
}
