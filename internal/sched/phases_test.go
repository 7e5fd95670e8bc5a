package sched

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/workload"
)

// phaseByName indexes a Stats snapshot's phase list.
func phaseByName(st Stats) map[string]PhaseStat {
	m := make(map[string]PhaseStat, len(st.Phases))
	for _, p := range st.Phases {
		m[p.Name] = p
	}
	return m
}

// TestPhaseAccounting pins the measure-once contract: every simulation
// lands in exactly one phase, labeled by the submitting batch, and the
// per-phase seconds sum to BusySeconds exactly (same time.Now pair, no
// second measurement to drift).
func TestPhaseAccounting(t *testing.T) {
	r := New(Options{Scale: 5e-4, Parallelism: 4})
	app := workload.MustByName("ferret")

	r.RunBatchIn(BatchInfo{Phase: "probe"}, []Spec{
		SingleSpec{App: app, Threads: 1},
		SingleSpec{App: app, Threads: 2},
	})
	r.RunBatch([]Spec{SingleSpec{App: app, Threads: 4}}) // unlabeled -> "sim"
	r.Run(SingleSpec{App: app, Threads: 8})              // outside any batch -> "sim"

	st := r.Stats()
	ph := phaseByName(st)
	if got := ph["probe"].Count; got != 2 {
		t.Errorf("probe phase count = %d, want 2", got)
	}
	if got := ph[PhaseSim].Count; got != 2 {
		t.Errorf("sim phase count = %d, want 2", got)
	}
	if got := ph["probe"].Count + ph[PhaseSim].Count; got != st.Simulations {
		t.Errorf("simulation phases count %d, want Simulations %d", got, st.Simulations)
	}
	// Same nanosecond totals underneath; the float sum may differ in the
	// last ulp from BusySeconds' single conversion.
	if sum := ph["probe"].Seconds + ph[PhaseSim].Seconds; sum < st.BusySeconds-1e-9 || sum > st.BusySeconds+1e-9 {
		t.Errorf("simulation phase seconds %v != BusySeconds %v (must share one measurement)",
			sum, st.BusySeconds)
	}
	// Queue wait: one entry per batched item (the direct Run never
	// queued).
	if got := ph[PhaseQueueWait].Count; got != 3 {
		t.Errorf("queue-wait count = %d, want 3", got)
	}
	// Gauges are zero at rest.
	if st.QueueDepth != 0 || st.ActiveWorkers != 0 {
		t.Errorf("idle gauges: depth %d, workers %d", st.QueueDepth, st.ActiveWorkers)
	}

	// A warm replay of the first batch is all memo hits: no new
	// simulation phases, but the joins are not memo-wait either (the
	// flights are long finished — the memo-wait phase counts only
	// duplicate keys in flight; a replayed key hits the cache entry
	// directly).
	before := phaseByName(r.Stats())
	r.RunBatchIn(BatchInfo{Phase: "probe"}, []Spec{
		SingleSpec{App: app, Threads: 1},
		SingleSpec{App: app, Threads: 2},
	})
	after := phaseByName(r.Stats())
	if before["probe"].Count != after["probe"].Count {
		t.Errorf("warm replay grew the probe phase: %d -> %d",
			before["probe"].Count, after["probe"].Count)
	}
	if after[PhaseMemoWait].Count == 0 {
		t.Errorf("warm replay recorded no memo-wait joins")
	}
}

// TestPhaseDiskAccounting: with a persistent store attached, load and
// save probes show up as disk phases.
func TestPhaseDiskAccounting(t *testing.T) {
	dir := t.TempDir()
	r := New(Options{Scale: 5e-4, Parallelism: 2, CacheDir: dir})
	app := workload.MustByName("fop")
	r.RunBatch([]Spec{
		SingleSpec{App: app, Threads: 1},
		SingleSpec{App: app, Threads: 2},
	})
	ph := phaseByName(r.Stats())
	if ph[PhaseDiskLoad].Count != 2 || ph[PhaseDiskSave].Count != 2 {
		t.Errorf("disk phases after cold run: load %d save %d, want 2 and 2",
			ph[PhaseDiskLoad].Count, ph[PhaseDiskSave].Count)
	}

	// A second runner on the same directory loads instead of simulating.
	r2 := New(Options{Scale: 5e-4, Parallelism: 2, CacheDir: dir})
	r2.RunBatch([]Spec{SingleSpec{App: app, Threads: 1}})
	ph2 := phaseByName(r2.Stats())
	if ph2[PhaseDiskLoad].Count != 1 || ph2[PhaseDiskSave].Count != 0 {
		t.Errorf("disk phases after warm run: load %d save %d, want 1 and 0",
			ph2[PhaseDiskLoad].Count, ph2[PhaseDiskSave].Count)
	}
	if r2.Stats().Simulations != 0 {
		t.Errorf("warm runner simulated %d", r2.Stats().Simulations)
	}
}

// TestStatsDeltaPhases: Delta subtracts phases by name and drops the
// all-zero ones, so an envelope's per-run breakdown holds only the
// phases that run touched.
func TestStatsDeltaPhases(t *testing.T) {
	r := New(Options{Scale: 5e-4, Parallelism: 2})
	app := workload.MustByName("batik")
	r.RunBatchIn(BatchInfo{Phase: "probe"}, []Spec{SingleSpec{App: app, Threads: 1}})
	before := r.Stats()
	r.RunBatchIn(BatchInfo{Phase: "resim"}, []Spec{SingleSpec{App: app, Threads: 2}})
	d := r.Stats().Delta(before)

	ph := phaseByName(d)
	if _, ok := ph["probe"]; ok {
		t.Errorf("delta kept the untouched probe phase: %+v", d.Phases)
	}
	if got := ph["resim"].Count; got != 1 {
		t.Errorf("delta resim count = %d, want 1", got)
	}
	if got := ph[PhaseQueueWait].Count; got != 1 {
		t.Errorf("delta queue-wait count = %d, want 1", got)
	}
	if d.Simulations != 1 {
		t.Errorf("delta simulations = %d", d.Simulations)
	}
}

// TestTracerBatchSpans: a traced batch produces one batch span plus a
// simulate span per executed spec, nested under the caller's parent,
// and the simulate spans' durations equal the phase seconds exactly —
// the same single measurement feeds both.
func TestTracerBatchSpans(t *testing.T) {
	tr := obs.New(0)
	r := New(Options{Scale: 5e-4, Parallelism: 2, Tracer: tr})
	app := workload.MustByName("dedup")

	root := tr.Start("run", 0)
	r.RunBatchIn(BatchInfo{Span: root.ID(), Phase: "probe"}, []Spec{
		SingleSpec{App: app, Threads: 1},
		SingleSpec{App: app, Threads: 2},
	})
	root.End()

	recs := tr.Snapshot()
	byName := map[string][]obs.SpanRecord{}
	for _, rec := range recs {
		byName[rec.Name] = append(byName[rec.Name], rec)
	}
	if len(byName["probe-batch"]) != 1 || len(byName["simulate"]) != 2 {
		t.Fatalf("span census: %d probe-batch, %d simulate", len(byName["probe-batch"]), len(byName["simulate"]))
	}
	batch := byName["probe-batch"][0]
	if batch.Parent != root.ID() {
		t.Errorf("batch span parent = %d, want root %d", batch.Parent, root.ID())
	}
	var simTotal time.Duration
	for _, s := range byName["simulate"] {
		if s.Parent != batch.ID {
			t.Errorf("simulate span parent = %d, want batch %d", s.Parent, batch.ID)
		}
		simTotal += s.Dur
	}
	ph := phaseByName(r.Stats())
	if got := time.Duration(ph["probe"].Seconds * float64(time.Second)); simTotal != got {
		// Seconds round-trips through float64; compare at nanosecond
		// granularity via the total instead.
		if d := simTotal - got; d < -time.Nanosecond || d > time.Nanosecond {
			t.Errorf("simulate span total %v != probe phase %v", simTotal, got)
		}
	}
}
