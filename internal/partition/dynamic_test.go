package partition

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/workload"
)

// attachController runs fg+bg with the registered dynamic policy's
// decision loop attached and returns the loop and run result.
func attachController(t *testing.T, fgName, bgName string, scale float64) (*Loop, *machine.Result) {
	t.Helper()
	r := sched.New(sched.Options{Scale: scale})
	return attachControllerPair(t, r, workload.MustByName(fgName), workload.MustByName(bgName))
}

func TestControllerRunsAndStaysInBounds(t *testing.T) {
	ctl, _ := attachController(t, "429.mcf", "ferret", 2e-3)
	if ctl == nil {
		t.Fatal("controller never attached")
	}
	if len(ctl.Samples()) < 50 {
		t.Fatalf("only %d controller samples", len(ctl.Samples()))
	}
	for _, s := range ctl.Samples() {
		if s.Ways < 2 || s.Ways > 11 {
			t.Fatalf("allocation %d ways outside [2,11]", s.Ways)
		}
	}
}

func TestControllerReclaimsCapacity(t *testing.T) {
	// ferret needs almost no LLC: within a phase the controller must
	// shrink its allocation well below the 11-way maximum.
	ctl, _ := attachController(t, "ferret", "429.mcf", 2e-3)
	min := 12
	for _, s := range ctl.Samples() {
		if s.Ways < min {
			min = s.Ways
		}
	}
	if min > 4 {
		t.Fatalf("controller never shrank a cache-indifferent app below %d ways", min)
	}
}

func TestControllerReactsToPhases(t *testing.T) {
	// mcf alternates small/large working sets; the controller must
	// reallocate several times (phase starts re-grant the maximum).
	ctl, _ := attachController(t, "429.mcf", "ferret", 2e-3)
	if ctl.Reallocations() < 4 {
		t.Fatalf("only %d reallocations across 6 phases", ctl.Reallocations())
	}
}

func TestControllerPreservesForegroundPerformance(t *testing.T) {
	// §6.4: dynamic foreground time within a few percent of the best
	// static allocation. The paper measures ~2% on 100 ms intervals over
	// multi-minute runs; at our reduced scale the MPKI signal is far
	// noisier and working sets re-warm after every grant, so we assert a
	// 25% envelope here and report the measured gap in EXPERIMENTS.md.
	scale := 2e-3
	r := sched.New(sched.Options{Scale: scale})
	fg := workload.MustByName("429.mcf")
	bg := workload.MustByName("ferret")
	best, _ := priceBiased(t, r, "", fg, bg)
	static := best.Main
	_, dyn := attachControllerPair(t, r, fg, bg)
	sFg := static.JobByName(fg.Name).Seconds
	dFg := dyn.JobByName(fg.Name).Seconds
	if dFg > sFg*1.25 {
		t.Fatalf("dynamic fg time %v vs best static %v (>25%% worse)", dFg, sFg)
	}
}

// attachControllerPair is attachController on a given runner. The
// sampling interval is the engine-wide rule: ~500 decision intervals
// over the foreground run, the same ratio as 100 ms on the paper's
// multi-minute executions.
func attachControllerPair(t *testing.T, r *sched.Runner, fg, bg *workload.Profile) (*Loop, *machine.Result) {
	t.Helper()
	var loop *Loop
	res := r.Run(sched.PairSpec{
		Fg: fg, Bg: bg, Mode: sched.BackgroundLoop,
		Setup: func(m *machine.Machine, fgJob, bgJob *machine.Job) {
			loop = AttachLoop(m, []LoopJob{{Job: fgJob, Latency: true}, {Job: bgJob}},
				MustNew("dynamic", nil), SamplingInterval(fg, r.Scale()))
		},
	})
	return loop, res
}

func TestAttachValidation(t *testing.T) {
	r := sched.New(sched.Options{Scale: 5e-4})
	fg := workload.MustByName("fop")
	bg := workload.MustByName("batik")
	defer func() {
		if recover() == nil {
			t.Fatal("zero interval accepted")
		}
	}()
	r.Run(sched.PairSpec{
		Fg: fg, Bg: bg, Mode: sched.BackgroundLoop,
		Setup: func(m *machine.Machine, fgJob, bgJob *machine.Job) {
			AttachLoop(m, []LoopJob{{Job: fgJob, Latency: true}, {Job: bgJob}},
				MustNew("dynamic", nil), 0) // no interval
		},
	})
}

func TestRelDelta(t *testing.T) {
	if d := relDelta(10, 10); d != 0 {
		t.Fatalf("relDelta(10,10) = %v", d)
	}
	if d := relDelta(10, 5); d != 0.5 {
		t.Fatalf("relDelta(10,5) = %v", d)
	}
	if d := relDelta(5, 10); d != 0.5 {
		t.Fatalf("relDelta(5,10) = %v", d)
	}
	// Near-zero MPKI must not blow up.
	if d := relDelta(0, 0.01); d > 1 {
		t.Fatalf("relDelta floor failed: %v", d)
	}
}
