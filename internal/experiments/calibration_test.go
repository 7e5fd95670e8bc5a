package experiments

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// The calibration contract: spot-checks that key applications land in
// the paper's published classes at a meaningful scale. These run the
// heavier sweeps, so `go test -short` skips them.

func calCtx() *Context {
	// Quick scope (representatives) but the full 12-point capacity sweep:
	// utility classification needs fine way granularity.
	c := NewQuickContext(sched.Options{Scale: 2e-3})
	c.WayPoints = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	return c
}

func TestCalibrationScalabilityClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration check skipped in -short mode")
	}
	c := calCtx()
	expect := map[string]ScalabilityClass{
		"swaptions": ScalHigh, // PARSEC high scaler
		"ferret":    ScalHigh,
		"h2":        ScalLow, // lock-serialized DB (Table 1)
		"429.mcf":   ScalLow, // sequential
		"ccbench":   ScalLow, // single-threaded microbenchmark
	}
	for name, want := range expect {
		app := workload.MustByName(name)
		got := classifyScalability(c.SpeedupCurve(app))
		if got != want {
			t.Errorf("%s: scalability %s, want %s (Table 1)", name, got, want)
		}
	}
}

func TestCalibrationUtilityClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration check skipped in -short mode")
	}
	c := calCtx()
	// Low-utility apps reach full performance with 1 MB (Table 2).
	for _, name := range []string{"swaptions", "blackscholes", "ferret", "462.libquantum"} {
		app := workload.MustByName(name)
		th := 4
		if app.MaxThreads < th {
			th = app.MaxThreads
		}
		curve := c.CapacityCurve(app, th)
		if cl := classifyUtility(curve, c.WayPoints); cl != UtilLow {
			t.Errorf("%s: utility %s, want low (Table 2)", name, cl)
		}
	}
	// High-utility apps keep improving to the top of the range.
	app := workload.MustByName("471.omnetpp")
	curve := c.CapacityCurve(app, 1)
	if cl := classifyUtility(curve, c.WayPoints); cl != UtilHigh {
		t.Errorf("471.omnetpp: utility %s, want high (Table 2)", cl)
	}
}

func TestCalibrationDirectMappedPathology(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration check skipped in -short mode")
	}
	// §3.2: 0.5 MB direct-mapped is always detrimental — for every
	// representative, 1 way must be slower than 2 ways.
	c := calCtx()
	for _, app := range c.Reps {
		th := 4
		if app.MaxThreads < th {
			th = app.MaxThreads
		}
		one := c.R.Run(sched.SingleSpec{App: app, Threads: th, Ways: 1}).JobByName(app.Name).Seconds
		two := c.R.Run(sched.SingleSpec{App: app, Threads: th, Ways: 2}).JobByName(app.Name).Seconds
		if one < two {
			t.Errorf("%s: direct-mapped 1 way (%v) faster than 2 ways (%v)", app.Name, one, two)
		}
	}
}

func TestCalibrationRaceToHalt(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration check skipped in -short mode")
	}
	// §4: for a scalable application, racing on all 8 hyperthreads
	// consumes less total energy than crawling on one.
	r := sched.New(sched.Options{Scale: 2e-3})
	app := workload.MustByName("swaptions")
	one := r.Run(sched.SingleSpec{App: app, Threads: 1})
	eight := r.Run(sched.SingleSpec{App: app, Threads: 8})
	if eight.Energy.SocketJoules >= one.Energy.SocketJoules {
		t.Errorf("race-to-halt violated (socket): 8thr %v J vs 1thr %v J",
			eight.Energy.SocketJoules, one.Energy.SocketJoules)
	}
	if eight.Energy.WallJoules >= one.Energy.WallJoules {
		t.Errorf("race-to-halt violated (wall): 8thr %v J vs 1thr %v J",
			eight.Energy.WallJoules, one.Energy.WallJoules)
	}
	// But a sequential application gains nothing from extra threads and
	// must not pay for them either (threads are capped).
	mcf := workload.MustByName("429.mcf")
	a := r.Run(sched.SingleSpec{App: mcf, Threads: 1})
	b := r.Run(sched.SingleSpec{App: mcf, Threads: 8})
	ratio := b.Energy.SocketJoules / a.Energy.SocketJoules
	if ratio < 0.99 || ratio > 1.01 {
		t.Errorf("sequential app energy changed with thread request: ratio %v", ratio)
	}
}

func TestCalibrationConsolidationSavesEnergy(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration check skipped in -short mode")
	}
	// §5.3: running two applications concurrently (4+4 threads) costs
	// less energy than running them sequentially on the whole machine.
	c := calCtx()
	a := workload.MustByName("fop")
	b := workload.MustByName("dedup")
	seq := c.R.Run(sched.AloneWholeSpec(a)).Energy.SocketJoules + c.R.Run(sched.AloneWholeSpec(b)).Energy.SocketJoules
	con := c.R.Run(sched.PairSpec{Fg: a, Bg: b, Mode: sched.BothOnce}).Energy.SocketJoules
	if con >= seq {
		t.Errorf("consolidation did not save energy: concurrent %v J vs sequential %v J", con, seq)
	}
}
