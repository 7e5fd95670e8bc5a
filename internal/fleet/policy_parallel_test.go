package fleet

import (
	"sort"
	"testing"

	"repro/internal/obs"
	"repro/internal/sched"
)

// churnTestDef is testDef plus a machine-churn timeline, so the
// policy-parallel identity suite also covers eviction, re-placement,
// and the requeued-item buffer under concurrent episodes.
func churnTestDef() *Def {
	def := testDef()
	def.Hysteresis = 0.005
	def.Events = []Event{
		{At: 0.01, Kind: EvMachineDown, Machine: 1},
		{At: 0.02, Kind: EvBatchArrival, App: "ferret", Count: 2, Iterations: 10},
		{At: 0.025, Kind: EvMachineDown, Machine: 2, Drain: true},
		{At: 0.03, Kind: EvMachineUp, Machine: 1},
		{At: 0.04, Kind: EvBatchCancel, App: "canneal", Count: 1},
		{At: 0.05, Kind: EvMachineUp, Machine: 2},
	}
	return def
}

// TestPolicyParallelByteIdentical is the episode layer's zero-drift
// guarantee: a fleet report must be byte-identical whether policy
// episodes replay serially (Parallelism 1, inline in order) or
// concurrently (Parallelism 8), under the exact and auto oracle tiers,
// on quiet and churning fleets.
func TestPolicyParallelByteIdentical(t *testing.T) {
	cases := []struct {
		name string
		def  func() *Def
	}{
		{"exact", testDef},
		{"exact-churn", churnTestDef},
		{"auto", func() *Def {
			def := testDef()
			def.Fidelity = FidelityAuto
			return def
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var outs []string
			for _, par := range []int{1, 8} {
				r := sched.New(sched.Options{Scale: testScale, Parallelism: par})
				rep, err := Run(r, "pp-"+tc.name, tc.def(), 0)
				if err != nil {
					t.Fatal(err)
				}
				outs = append(outs, rep.String())
			}
			if outs[0] != outs[1] {
				t.Errorf("report differs between parallelism 1 and 8\n--- serial ---\n%s\n--- parallel ---\n%s",
					outs[0], outs[1])
			}
		})
	}
}

// TestPolicyParallelStoreByteIdentical runs the 1-vs-8 comparison
// against a persistent store, cold and warm: concurrent episodes above
// a disk-backed engine must neither corrupt the store nor read
// differently from it.
func TestPolicyParallelStoreByteIdentical(t *testing.T) {
	def := testDef()
	var outs []string
	for _, par := range []int{1, 8} {
		dir := t.TempDir()
		for range 2 { // cold, then warm across a fresh runner
			r := sched.New(sched.Options{Scale: testScale, Parallelism: par, CacheDir: dir})
			rep, err := Run(r, "pp-store", def, 0)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, rep.String())
		}
	}
	for i := 1; i < len(outs); i++ {
		if outs[i] != outs[0] {
			t.Errorf("report %d differs across parallelism x cold/warm store\n--- first ---\n%s\n--- got ---\n%s",
				i, outs[0], outs[i])
		}
	}
}

// TestPolicyParallelEpisodePhase: the episode phase accounting must
// record one entry per policy regardless of how episodes were
// scheduled.
func TestPolicyParallelEpisodePhase(t *testing.T) {
	r := sched.New(sched.Options{Scale: testScale, Parallelism: 8})
	if _, err := Run(r, "phase", testDef(), 0); err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Stats().Phases {
		if p.Name == "episode" {
			if p.Count != 3 {
				t.Fatalf("episode phase count %d, want 3", p.Count)
			}
			return
		}
	}
	t.Fatal("no episode phase recorded")
}

// TestPolicyParallelError: a definition that stalls must surface the
// same error from the concurrent path as from the serial one.
func TestPolicyParallelError(t *testing.T) {
	def := testDef()
	def.Partition = "utility"
	def.PartitionParams = []byte(`{"min_ways": 7}`) // rejected once the geometry is known
	var msgs []string
	for _, par := range []int{1, 8} {
		r := sched.New(sched.Options{Scale: testScale, Parallelism: par})
		_, err := Run(r, "err", def, 0)
		if err == nil {
			t.Fatalf("parallelism %d: bad params accepted", par)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Errorf("error differs: serial %q, parallel %q", msgs[0], msgs[1])
	}
}

// TestSerialEpisodesDoNotOverlap: the engine's Parallelism is the one
// budget episodes fan out over, so at Parallelism 1 a traced
// multi-policy run replays its episodes one after another — their
// spans never overlap.
func TestSerialEpisodesDoNotOverlap(t *testing.T) {
	tr := obs.New(0)
	r := sched.New(sched.Options{Scale: testScale, Parallelism: 1, Tracer: tr})
	def := testDef()
	if _, err := Run(r, "serial", def, 0); err != nil {
		t.Fatal(err)
	}
	var eps []obs.SpanRecord
	for _, rec := range tr.Snapshot() {
		if rec.Name == "episode" {
			eps = append(eps, rec)
		}
	}
	if want := len(def.policies()); len(eps) != want || want < 2 {
		t.Fatalf("%d episode spans for %d policies, want one each (and at least 2)", len(eps), want)
	}
	sort.Slice(eps, func(i, j int) bool { return eps[i].Start < eps[j].Start })
	for i := 1; i < len(eps); i++ {
		if prevEnd := eps[i-1].Start + eps[i-1].Dur; eps[i].Start < prevEnd {
			t.Errorf("episode %d starts at %v before episode %d ends at %v", i, eps[i].Start, i-1, prevEnd)
		}
	}
}
