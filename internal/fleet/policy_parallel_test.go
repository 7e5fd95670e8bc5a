package fleet

import (
	"testing"

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

// TestPolicyParallelByteIdentical is the tentpole's zero-drift
// guarantee: a fleet report must be byte-identical whether policy
// episodes replay serially or concurrently, under the exact and auto
// oracle tiers, on quiet and churning fleets. (The engine-parallelism
// analogue is TestFleetParallelismByteIdentical; this pins the episode
// layer added above it.)
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
			for _, pp := range []int{1, 8} {
				r := sched.New(sched.Options{Scale: testScale})
				rep, err := RunWith(r, "pp-"+tc.name, tc.def(), RunOpts{PolicyParallel: pp})
				if err != nil {
					t.Fatal(err)
				}
				outs = append(outs, rep.String())
			}
			if outs[0] != outs[1] {
				t.Errorf("report differs between policy-parallel 1 and 8\n--- serial ---\n%s\n--- parallel ---\n%s",
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
	for _, pp := range []int{1, 8} {
		dir := t.TempDir()
		for range 2 { // cold, then warm across a fresh runner
			r := sched.New(sched.Options{Scale: testScale, CacheDir: dir})
			rep, err := RunWith(r, "pp-store", def, RunOpts{PolicyParallel: pp})
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, rep.String())
		}
	}
	for i := 1; i < len(outs); i++ {
		if outs[i] != outs[0] {
			t.Errorf("report %d differs across policy-parallel x cold/warm store\n--- first ---\n%s\n--- got ---\n%s",
				i, outs[0], outs[i])
		}
	}
}

// TestPolicyParallelEpisodePhase: the episode phase accounting must
// record one entry per policy regardless of how episodes were
// scheduled.
func TestPolicyParallelEpisodePhase(t *testing.T) {
	r := sched.New(sched.Options{Scale: testScale})
	if _, err := RunWith(r, "phase", testDef(), RunOpts{PolicyParallel: 8}); err != nil {
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
	for _, pp := range []int{1, 8} {
		r := sched.New(sched.Options{Scale: testScale})
		_, err := RunWith(r, "err", def, RunOpts{PolicyParallel: pp})
		if err == nil {
			t.Fatalf("policy-parallel %d: bad params accepted", pp)
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Errorf("error differs: serial %q, parallel %q", msgs[0], msgs[1])
	}
}
