package fleet

import (
	"testing"

	"repro/internal/loadgen"
	"repro/internal/sched"
)

// allocDef builds an event-loop stress fleet scaled by dur: arrivals
// grow linearly with duration while machines, classes, and timeline
// length stay fixed, so comparing allocation counts at two durations
// isolates the per-event cost.
func allocDef(dur float64) *Def {
	return &Def{
		Machines: 4,
		Duration: dur,
		Seed:     "alloc",
		Arrivals: []loadgen.RequestClass{{App: "xalan", Rate: 2000}},
		Backlog:  []loadgen.BatchDef{{App: "ferret", Count: 3, Iterations: 20}},
		Events: []Event{
			{At: 0.005, Kind: EvMachineDown, Machine: 3},
			{At: 0.01, Kind: EvMachineUp, Machine: 3},
		},
	}
}

// simAllocs measures allocations of one full episode (sim construction
// plus the event loop) over the prebuilt oracle.
func simAllocs(t *testing.T, r *sched.Runner, def *Def, arrivals []loadgen.Arrival, backlog []loadgen.BatchItem, o *oracle) float64 {
	t.Helper()
	return testing.AllocsPerRun(10, func() {
		s := newSim(def, o, PackPartition, arrivals, backlog)
		s.run()
	})
}

// TestSimRunAllocationFree pins the event loop's allocation behavior:
// the per-event cost must be zero. Setup allocations (machine array,
// request states, the heap's first growth) are inherently per-episode,
// so the pin compares a short trace against one with ~8x the events —
// the allocation counts must match, proving nothing in the loop
// allocates per event. The typed heap (no container/heap interface
// boxing) and the requeued head index are what this buys.
func TestSimRunAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	r := sched.New(sched.Options{Scale: testScale})
	episode := func(dur float64) float64 {
		def := allocDef(dur)
		if err := def.Validate(); err != nil {
			t.Fatal(err)
		}
		arrivals, err := loadgen.ArrivalsScaled(def.Arrivals, def.Duration, def.seed(), def.scalePoints())
		if err != nil {
			t.Fatal(err)
		}
		backlog, err := loadgen.Backlog(def.Backlog)
		if err != nil {
			t.Fatal(err)
		}
		o, err := buildOracle(r, def, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(arrivals) < 10 {
			t.Fatalf("degenerate trace: %d arrivals at duration %g", len(arrivals), dur)
		}
		t.Logf("duration %g: %d arrivals", dur, len(arrivals))
		return simAllocs(t, r, def, arrivals, backlog, o)
	}
	short := episode(0.02)
	long := episode(0.16)
	// Identical setup shape at both durations; only the event count
	// differs. A couple of allocations of slack absorb incidental
	// amortized growth (machine FIFO queues under heavier load).
	if long > short+4 {
		t.Errorf("event loop allocates per event: %.1f allocs on the short trace, %.1f on the ~8x trace", short, long)
	}
}
