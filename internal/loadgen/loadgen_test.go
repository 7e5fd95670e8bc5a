package loadgen

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/rng"
)

func TestArrivalsDeterministic(t *testing.T) {
	classes := []RequestClass{
		{App: "429.mcf", Rate: 40},
		{App: "ferret", Process: ProcBursty, Rate: 25},
		{App: "fop", Process: ProcDiurnal, Rate: 30, Amplitude: 0.6},
	}
	a, err := ArrivalsScaled(classes, 2.0, "fleet", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ArrivalsScaled(classes, 2.0, "fleet", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same spec and seed produced different traces")
	}
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	for i := 1; i < len(a); i++ {
		if a[i].AtSeconds < a[i-1].AtSeconds {
			t.Fatalf("trace not time-sorted at %d", i)
		}
	}
	c, err := ArrivalsScaled(classes, 2.0, "other-seed", nil)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestArrivalsClassIndependence(t *testing.T) {
	// Adding a class must not perturb an existing class's arrivals.
	one, err := ArrivalsScaled([]RequestClass{{App: "429.mcf", Rate: 40}}, 2.0, "s", nil)
	if err != nil {
		t.Fatal(err)
	}
	two, err := ArrivalsScaled([]RequestClass{
		{App: "429.mcf", Rate: 40},
		{App: "ferret", Rate: 100},
	}, 2.0, "s", nil)
	if err != nil {
		t.Fatal(err)
	}
	var fromTwo []Arrival
	for _, a := range two {
		if a.Class == 0 {
			fromTwo = append(fromTwo, a)
		}
	}
	if !reflect.DeepEqual(one, fromTwo) {
		t.Fatal("class 0 arrivals changed when class 1 was added")
	}
}

func TestArrivalRatesApproximateMean(t *testing.T) {
	// Long traces should land near the declared mean rate for every
	// process (the bursty and diurnal shapes preserve it by design).
	for _, proc := range []Process{ProcPoisson, ProcBursty, ProcDiurnal} {
		a, err := ArrivalsScaled([]RequestClass{{App: "x", Process: proc, Rate: 50, BurstSeconds: 2}}, 200, "rate", nil)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(len(a)) / 200
		if math.Abs(got-50) > 5 {
			t.Errorf("%s: mean rate %.1f/s, want ~50/s", proc, got)
		}
	}
}

func TestArrivalsValidation(t *testing.T) {
	cases := []RequestClass{
		{App: "x", Rate: 0},
		{App: "x", Rate: 10, Process: "weird"},
		{App: "x", Rate: 10, Process: ProcBursty, BurstFactor: 0.5},
		{App: "x", Rate: 10, Process: ProcBursty, BurstFrac: 1.5},
		{App: "x", Rate: 10, Process: ProcDiurnal, Amplitude: 2},
	}
	for i, c := range cases {
		if _, err := ArrivalsScaled([]RequestClass{c}, 1, "s", nil); err == nil {
			t.Errorf("case %d: invalid class accepted: %+v", i, c)
		}
	}
	if _, err := ArrivalsScaled([]RequestClass{{App: "x", Rate: 1}}, 0, "s", nil); err == nil {
		t.Error("zero duration accepted")
	}
}

// TestBurstyStopsAtTraceEnd pins that the bursty generator draws no
// quiet or burst period past the trace. At a rate this low the first
// candidate lands about a thousand seconds out, and the generator must
// stop there: it draws the first state's length and that one gap, not
// the thousands of periods up to the candidate.
func TestBurstyStopsAtTraceEnd(t *testing.T) {
	c := &RequestClass{App: "x", Process: ProcBursty, Rate: 1e-3}
	r := rng.NewNamed("bursty-end")
	if times := burstyTimes(r, c, 1, nil); len(times) != 0 {
		t.Fatalf("%d arrivals at rate 1e-3 over 1 s", len(times))
	}
	ref := rng.NewNamed("bursty-end")
	ref.Float64()
	ref.Float64()
	if r.Uint64() != ref.Uint64() {
		t.Fatal("the generator drew past the first candidate beyond the trace")
	}
}

func TestBacklogExpansion(t *testing.T) {
	items, err := Backlog([]BatchDef{{App: "ferret", Count: 3}, {App: "dedup"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 4 {
		t.Fatalf("got %d items, want 4", len(items))
	}
	want := []BatchItem{
		{App: "ferret", Iterations: 1, Def: 0, Seq: 0, Index: 0},
		{App: "ferret", Iterations: 1, Def: 0, Seq: 1, Index: 1},
		{App: "ferret", Iterations: 1, Def: 0, Seq: 2, Index: 2},
		{App: "dedup", Iterations: 1, Def: 1, Seq: 0, Index: 3},
	}
	if !reflect.DeepEqual(items, want) {
		t.Fatalf("got %+v", items)
	}
	if items2, err := Backlog([]BatchDef{{App: "x", Count: 2, Iterations: 40}}); err != nil || items2[1].Iterations != 40 {
		t.Fatalf("iterations not carried: %+v, %v", items2, err)
	}
	if _, err := Backlog([]BatchDef{{App: "x", Count: -1}}); err == nil {
		t.Fatal("negative count accepted")
	}
	if _, err := Backlog([]BatchDef{{App: "x", Iterations: -2}}); err == nil {
		t.Fatal("negative iterations accepted")
	}
}

// sortedTrace is the trace construction the per-class merge replaced,
// kept as its reference: every class's arrivals concatenated in class
// order, then sorted by (time, class, seq).
func sortedTrace(classes []RequestClass, duration float64, seed string, scales []ScalePoint) []Arrival {
	var out []Arrival
	for i := range classes {
		c := &classes[i]
		name := c.Seed
		if name == "" {
			name = fmt.Sprintf("class%d", i)
		}
		r := rng.NewNamed("loadgen/" + seed + "/" + name)
		var times []float64
		switch c.process() {
		case ProcPoisson:
			times = poissonTimes(r, c.Rate, duration, scales)
		case ProcBursty:
			times = burstyTimes(r, c, duration, scales)
		default:
			times = diurnalTimes(r, c, duration, scales)
		}
		for seq, t := range times {
			out = append(out, Arrival{AtSeconds: t, App: c.App, Class: i, Seq: seq})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].AtSeconds != out[b].AtSeconds {
			return out[a].AtSeconds < out[b].AtSeconds
		}
		if out[a].Class != out[b].Class {
			return out[a].Class < out[b].Class
		}
		return out[a].Seq < out[b].Seq
	})
	return out
}

// TestMergeMatchesSort checks the merged trace against the sort it
// replaced over random class sets: every process, with and without a
// load-scale timeline. Each set also carries twin classes — same seed,
// process and rate — whose arrival times coincide one for one, so
// every such tie must fall to class order.
func TestMergeMatchesSort(t *testing.T) {
	r := rng.NewNamed("loadgen-merge-test")
	procs := []Process{ProcPoisson, ProcBursty, ProcDiurnal}
	ties := 0
	for trial := 0; trial < 60; trial++ {
		duration := 0.5 + 2*r.Float64()
		var classes []RequestClass
		for i, n := 0, 1+r.Intn(4); i < n; i++ {
			c := RequestClass{
				App:     fmt.Sprintf("app%d", r.Intn(3)),
				Process: procs[r.Intn(len(procs))],
				Rate:    5 + 300*r.Float64(),
			}
			switch c.Process {
			case ProcBursty:
				c.BurstFactor = 2 + 6*r.Float64()
				c.BurstFrac = 0.05 + 0.3*r.Float64()
				c.BurstSeconds = duration / float64(5+r.Intn(20))
			case ProcDiurnal:
				c.Amplitude = r.Float64()
				c.PeriodSeconds = duration / float64(1+r.Intn(3))
			}
			if r.Intn(3) == 0 {
				c.Seed = fmt.Sprintf("shared%d", r.Intn(2))
			}
			classes = append(classes, c)
		}
		twin := classes[r.Intn(len(classes))]
		twin.Seed = "twin"
		twin.App = "twin-app"
		at := r.Intn(len(classes) + 1)
		classes = append(classes[:at], append([]RequestClass{twin}, classes[at:]...)...)
		twin.App = "twin-app-2"
		classes = append(classes, twin)

		var scales []ScalePoint
		if trial%2 == 1 {
			at := 0.0
			for i, n := 0, 1+r.Intn(3); i < n; i++ {
				at += duration * r.Float64() / 3
				scales = append(scales, ScalePoint{At: at, Factor: 0.3 + 2.7*r.Float64()})
			}
		}
		seed := fmt.Sprintf("trial%d", trial)
		got, err := ArrivalsScaled(classes, duration, seed, scales)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := sortedTrace(classes, duration, seed, scales)
		if !reflect.DeepEqual(got, want) {
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Fatalf("trial %d (%d classes, %d scale points): arrival %d is %+v, the sort gives %+v",
						trial, len(classes), len(scales), i, got[i], want[i])
				}
			}
			t.Fatalf("trial %d: merged trace has %d arrivals, the sort %d", trial, len(got), len(want))
		}
		for i := 1; i < len(got); i++ {
			if got[i].AtSeconds == got[i-1].AtSeconds && got[i].Class != got[i-1].Class {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no two classes ever arrived at the same instant; the class-order tie went unchecked")
	}
	t.Logf("%d equal-time arrivals of different classes", ties)
}
