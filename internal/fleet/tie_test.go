package fleet

import (
	"testing"

	"repro/internal/loadgen"
	"repro/internal/sched"
)

// TestArrivalTiesFollowEventOrder pins how a trace arrival ties with a
// heap event at the same instant. The loop reads arrivals from the
// trace and merges them with the heap, so it must still follow
// eventLess: a completion pops before an arrival at its time, and an
// arrival pops before a timeline event at its time. Loadgen times are
// random floats that almost never tie, so the arrivals here are made by
// hand on a two-machine pack-partition pool, where each tie's order
// shows in the machine the arrival gets.
func TestArrivalTiesFollowEventOrder(t *testing.T) {
	def := &Def{
		Machines: 2,
		Duration: 1,
		Seed:     "ties",
		Policies: []PolicyName{PackPartition},
		Arrivals: []loadgen.RequestClass{{App: "xalan", Rate: 1}},
	}
	r := sched.New(sched.Options{Scale: testScale})
	o, err := buildOracle(r, def, 0)
	if err != nil {
		t.Fatal(err)
	}
	service := o.aloneOf("xalan").Seconds
	t0 := 0.001
	// done is the first request's completion on machine 0, summed as
	// the loop sums it; down fails machine 0 once it is idle again.
	done := t0 + service
	down := done + 3*service
	def.Events = []Event{{At: down, Kind: EvMachineDown, Machine: 0}}
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	if !eventLess(event{t: done, kind: evFgDone}, event{t: done, kind: evArrival}) ||
		!eventLess(event{t: down, kind: evArrival}, event{t: down, kind: evFleet}) {
		t.Fatal("eventLess no longer orders completion < arrival < timeline event at equal times")
	}
	arrivals := []loadgen.Arrival{
		{AtSeconds: t0, App: "xalan", Seq: 0},
		{AtSeconds: done, App: "xalan", Seq: 1},
		{AtSeconds: down, App: "xalan", Seq: 2},
	}

	type decision struct {
		now float64
		mi  int
	}
	s := newSim(def, o, PackPartition, arrivals, nil)
	defer s.recycle()
	var got []decision
	s.placed = func(app int, now float64, mi int, rejected bool) {
		got = append(got, decision{now, mi})
	}
	s.run()
	want := []decision{
		// A fresh pool: the lowest idle machine.
		{t0, 0},
		// The completion pops first, so the arrival takes the machine it
		// just freed, already in use. Popped first, the arrival would
		// find machine 0 busy and open machine 1.
		{done, 0},
		// The arrival pops before the machine-down and lands on idle
		// machine 0; the failure then evicts it to machine 1. Had the
		// failure popped first, machine 1 would be the only decision.
		{down, 0},
		{down, 1},
	}
	if len(got) != len(want) {
		t.Fatalf("placement decisions %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("decision %d: machine %d at t=%v, want machine %d at t=%v (all: %v)",
				i, got[i].mi, got[i].now, want[i].mi, want[i].now, got)
		}
	}
	for i := range s.reqs {
		if !s.reqs[i].done {
			t.Errorf("request %d never completed", i)
		}
	}
}
