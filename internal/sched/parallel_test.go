package sched

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/workload"
)

// sweepSpecs is a representative mixed sweep: thread points, way
// points, pair splits, and a multi-background run.
func sweepSpecs() []Spec {
	mcf := workload.MustByName("429.mcf")
	ferret := workload.MustByName("ferret")
	canneal := workload.MustByName("canneal")
	specs := []Spec{
		AloneHalfSpec(mcf),
		multiPeerMix(mcf, []*workload.Profile{ferret, ferret}, 0, 0),
	}
	for _, th := range []int{1, 2, 4, 8} {
		specs = append(specs, SingleSpec{App: ferret, Threads: th})
	}
	for _, w := range []int{2, 4, 6, 8} {
		specs = append(specs, SingleSpec{App: mcf, Threads: 1, Ways: w})
		specs = append(specs, PairSpec{Fg: mcf, Bg: canneal,
			FgWays: w, BgWays: 12 - w, Mode: BackgroundLoop})
	}
	return append(specs, PairSpec{Fg: canneal, Bg: ferret, Mode: BothOnce})
}

// memoKeys returns the sorted keys of a runner's memo cache, across
// all shards.
func memoKeys(r *Runner) []string {
	var keys []string
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for k := range sh.cache {
			keys = append(keys, k)
		}
		sh.mu.Unlock()
	}
	sort.Strings(keys)
	return keys
}

// TestParallelMatchesSerial is the engine's core guarantee: a sweep run
// with 1 worker and with 8 workers produces identical memo keys and
// identical machine.Result aggregates, element by element.
func TestParallelMatchesSerial(t *testing.T) {
	specs := sweepSpecs()
	serial := New(Options{Scale: 5e-4, Parallelism: 1})
	parallel := New(Options{Scale: 5e-4, Parallelism: 8})

	a := serial.RunBatch(specs)
	b := parallel.RunBatch(specs)

	if sk, pk := memoKeys(serial), memoKeys(parallel); !reflect.DeepEqual(sk, pk) {
		t.Fatalf("memo key sets differ:\nserial:   %v\nparallel: %v", sk, pk)
	}
	for i := range specs {
		if a[i] == nil || b[i] == nil {
			t.Fatalf("spec %d: missing result", i)
		}
		if !reflect.DeepEqual(*a[i], *b[i]) {
			t.Fatalf("spec %d (%T): results diverge\nserial:   %+v\nparallel: %+v",
				i, specs[i], *a[i], *b[i])
		}
	}
}

// TestSingleflight asserts that N concurrent requests for the same key
// run the simulation exactly once and all observe the same result.
func TestSingleflight(t *testing.T) {
	r := New(Options{Scale: 5e-4, Parallelism: 8})
	spec := SingleSpec{App: workload.MustByName("ferret"), Threads: 4}

	const n = 16
	results := make([]*machine.Result, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i] = r.Run(spec)
		}(i)
	}
	close(start)
	wg.Wait()

	if sims := r.Stats().Simulations; sims != 1 {
		t.Fatalf("%d concurrent identical requests ran %d simulations, want 1", n, sims)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("request %d got a different result object", i)
		}
	}
}

// TestRunBatchDedup asserts the batch API deduplicates identical specs
// submitted together: one simulation, shared by every slot.
func TestRunBatchDedup(t *testing.T) {
	r := New(Options{Scale: 5e-4, Parallelism: 4})
	spec := SingleSpec{App: workload.MustByName("fop"), Threads: 2}
	specs := make([]Spec, 10)
	for i := range specs {
		specs[i] = spec
	}
	out := r.RunBatch(specs)
	if sims := r.Stats().Simulations; sims != 1 {
		t.Fatalf("10 identical batched specs ran %d simulations, want 1", sims)
	}
	for i, res := range out {
		if res != out[0] {
			t.Fatalf("slot %d diverged", i)
		}
	}
}

// TestRunBatchOrder asserts results come back in submission order
// regardless of completion order.
func TestRunBatchOrder(t *testing.T) {
	apps := []string{"ferret", "fop", "batik", "dedup", "429.mcf"}
	r := New(Options{Scale: 5e-4, Parallelism: 8})
	specs := make([]Spec, len(apps))
	for i, name := range apps {
		specs[i] = SingleSpec{App: workload.MustByName(name), Threads: 2}
	}
	out := r.RunBatch(specs)
	for i, name := range apps {
		if got := out[i].Jobs[0].Name; got != name {
			t.Fatalf("slot %d: got %s, want %s", i, got, name)
		}
	}
}

// TestSetupHookNotMemoizedButBatchable: specs with Setup hooks must
// execute once per batch slot (no memoization) and still return in
// order.
func TestSetupHookNotMemoizedButBatchable(t *testing.T) {
	r := New(Options{Scale: 5e-4, Parallelism: 4})
	fg := workload.MustByName("fop")
	bg := workload.MustByName("batik")
	var mu sync.Mutex
	calls := 0
	spec := PairSpec{Fg: fg, Bg: bg, Mode: BackgroundLoop,
		Setup: func(m *machine.Machine, f, b *machine.Job) {
			mu.Lock()
			calls++
			mu.Unlock()
		}}
	out := r.RunBatch([]Spec{spec, spec, spec})
	if calls != 3 {
		t.Fatalf("setup hook ran %d times for 3 batched specs, want 3", calls)
	}
	if out[0] == out[1] || out[1] == out[2] {
		t.Fatal("non-memoizable runs shared a result object")
	}
}

// TestPanickedRunDoesNotPoisonCache: a memoizable spec that panics
// (here: an oversubscribed partition) must evict its in-flight entry,
// so a retry of the same key panics again instead of deadlocking on a
// never-closed flight.
func TestPanickedRunDoesNotPoisonCache(t *testing.T) {
	r := New(Options{Scale: 5e-4, Parallelism: 2})
	bad := PairSpec{Fg: workload.MustByName("fop"), Bg: workload.MustByName("batik"),
		FgWays: 8, BgWays: 8, Mode: BackgroundLoop}
	mustPanic := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		r.Run(bad)
		return
	}
	if !mustPanic() {
		t.Fatal("invalid partition accepted")
	}
	done := make(chan bool, 1)
	go func() { done <- mustPanic() }()
	select {
	case again := <-done:
		if !again {
			t.Fatal("retry of the panicked spec did not panic")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("retry of the panicked spec deadlocked on the poisoned flight")
	}
	if keys := memoKeys(r); len(keys) != 0 {
		t.Fatalf("poisoned entries left in cache: %v", keys)
	}
}

// TestRunBatchPropagatesPanic: a malformed spec in a batch must panic
// on the submitting goroutine (as it would serially), not kill the
// process from an unrecoverable worker goroutine.
func TestRunBatchPropagatesPanic(t *testing.T) {
	r := New(Options{Scale: 5e-4, Parallelism: 4})
	good := SingleSpec{App: workload.MustByName("ferret"), Threads: 2}
	bad := PairSpec{Fg: workload.MustByName("fop"), Bg: workload.MustByName("batik"),
		FgWays: 8, BgWays: 8, Mode: BackgroundLoop}
	defer func() {
		if recover() == nil {
			t.Fatal("batch containing a malformed spec did not panic")
		}
	}()
	r.RunBatch([]Spec{good, bad, good})
}

// TestStatsAccounting: simulations, memo hits, and busy time line up
// with what running one spec twice implies.
func TestStatsAccounting(t *testing.T) {
	r := New(Options{Scale: 5e-4, Parallelism: 2})
	spec := SingleSpec{App: workload.MustByName("dedup"), Threads: 2}
	r.Run(spec)
	r.Run(spec)
	st := r.Stats()
	if st.Simulations != 1 || st.MemoHits != 1 {
		t.Fatalf("stats = %+v, want 1 sim and 1 hit", st)
	}
	if st.BusySeconds <= 0 {
		t.Fatal("no busy time recorded")
	}
	if st.Parallelism != 2 {
		t.Fatalf("parallelism = %d", st.Parallelism)
	}
}
