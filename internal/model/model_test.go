package model

import (
	"encoding/json"
	"testing"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/workload"
)

// probeAloneSpec builds the canonical alone-half mix with the profiling
// monitor attached — the shape the fleet's fast tier profiles with.
func probeAloneSpec(app *workload.Profile, probe bool) sched.MixSpec {
	cfg := machine.Default()
	mix := sched.SingleSpec{App: app, Threads: cfg.Cores / 2 * cfg.ThreadsPerCore}.Mix(cfg)
	if probe {
		mix.Setup = ProbeSetup()
		mix.ProbeKey = ProbeKey()
	}
	return mix
}

func buildProfile(t *testing.T, r *sched.Runner, name string) *Profile {
	t.Helper()
	app := workload.MustByName(name)
	res := r.RunMix(probeAloneSpec(app, true))
	p, err := NewProfile(name, app.MLP, res, 0, machine.Default())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestProbeShadowOnly pins the guarantee the fast tier's exact
// baselines rest on: a probing run's result is byte-identical to the
// plain alone run in every field but the probe trace itself.
func TestProbeShadowOnly(t *testing.T) {
	r := sched.New(sched.Options{Scale: sched.QuickScale})
	app := workload.MustByName("xalan")
	plain := r.RunMix(probeAloneSpec(app, false))
	probed := r.RunMix(probeAloneSpec(app, true))
	if probed.Probe == nil || len(probed.Probe.Jobs) != 1 {
		t.Fatal("probing run carries no probe trace")
	}
	clone := *probed
	clone.Probe = nil
	a, _ := json.Marshal(plain)
	b, _ := json.Marshal(&clone)
	if string(a) != string(b) {
		t.Errorf("probing changed the simulation:\nplain:  %s\nprobed: %s", a, b)
	}

	// The two runs must nonetheless occupy distinct memo keys, and the
	// probe key must carry the model version.
	pk := probeAloneSpec(app, true).Key(r)
	nk := probeAloneSpec(app, false).Key(r)
	if pk == "" {
		t.Fatal("probing mix is not memoizable")
	}
	if pk == nk {
		t.Fatalf("probing mix aliases the plain mix: %q", pk)
	}
}

func TestProfileShape(t *testing.T) {
	r := sched.New(sched.Options{Scale: sched.QuickScale})
	p := buildProfile(t, r, "xalan")
	if p.Accesses == 0 || len(p.Curve) != p.Assoc {
		t.Fatalf("degenerate curve: %d accesses, %d points", p.Accesses, len(p.Curve))
	}
	last := 1.0
	for w := 1; w <= p.Assoc; w++ {
		mr := p.MissRatio(float64(w))
		if mr < 0 || mr > 1 {
			t.Fatalf("miss ratio at %d ways out of range: %v", w, mr)
		}
		if mr > last+1e-12 {
			t.Fatalf("miss ratio not monotone: %v at %d ways after %v", mr, w, last)
		}
		last = mr
	}
	// The prediction is anchored at the measurement: full allocation
	// reproduces the measured MPKI exactly.
	if got := p.MPKIAt(float64(p.Assoc)); got != p.AloneMPKI {
		t.Errorf("MPKIAt(assoc) = %v, want the measured %v", got, p.AloneMPKI)
	}
	for w := 1; w < p.Assoc; w++ {
		if p.MPKIAt(float64(w)) < p.MPKIAt(float64(w+1))-1e-12 {
			t.Errorf("MPKI not monotone in shrinking allocation at %d ways", w)
		}
	}
	if p.AloneSeconds <= 0 || p.AloneIPC <= 0 || p.CPIThread() <= 0 {
		t.Errorf("degenerate alone baseline: %+v", p)
	}
}

func TestEstimatorSanity(t *testing.T) {
	r := sched.New(sched.Options{Scale: sched.QuickScale})
	fg := buildProfile(t, r, "xalan")
	bg := buildProfile(t, r, "ferret")
	e := NewEstimator(machine.Default())
	assoc := e.Assoc()

	prev, first, last := -1.0, 0.0, 0.0
	for w := 1; w < assoc; w++ {
		pred := e.PredictPair(fg, bg, float64(w), float64(assoc-w))
		if pred.FgSlowdown < 1 || pred.BgSlowdown < 1 {
			t.Fatalf("slowdown below 1 at split %d: %+v", w, pred)
		}
		if pred.FgSeconds <= 0 || pred.BgRate <= 0 {
			t.Fatalf("degenerate prediction at split %d: %+v", w, pred)
		}
		// More ways for the foreground shrink its own miss penalty, but
		// the ways come out of the background, whose extra misses raise
		// shared-bus contention the foreground also pays — so the curve
		// trends down with a small coupling wobble allowed.
		if prev >= 0 && pred.FgSlowdown > prev+0.05 {
			t.Fatalf("fg slowdown grew with fg ways at %d: %v -> %v", w, prev, pred.FgSlowdown)
		}
		prev = pred.FgSlowdown
		if w == 1 {
			first = pred.FgSlowdown
		}
		last = pred.FgSlowdown
	}
	if last > first {
		t.Fatalf("fg slowdown at %d ways (%v) above 1 way (%v) — no benefit from the whole cache", assoc-1, last, first)
	}

	wf, wb := e.SharedWays(fg, bg)
	if wf <= 0 || wb <= 0 || wf+wb != float64(assoc) {
		t.Fatalf("shared split does not partition the cache: %v + %v", wf, wb)
	}

	// Determinism: identical inputs, identical forecast.
	a := e.PredictPair(fg, bg, 4, float64(assoc-4))
	b := e.PredictPair(fg, bg, 4, float64(assoc-4))
	if a != b {
		t.Fatalf("prediction not deterministic: %+v vs %+v", a, b)
	}
}
