package sched

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
)

// BatchInfo annotates a batch for observability: Span is the trace
// span the batch's own span nests under, and Phase labels the
// simulations it runs (envelope/metrics phase name; "" means the
// generic "sim" phase). The zero value — what RunBatch passes — keeps
// the batch anonymous.
type BatchInfo struct {
	Span  obs.SpanID
	Phase string
}

// RunBatch executes all specs and returns their results in submission
// order, fanning the work across Options.Parallelism workers. Identical
// specs submitted together are deduplicated by the singleflight memo
// cache — one runs, the rest share its result — so drivers can submit a
// whole figure's sweep without tracking which runs overlap. The batch
// fans out through Each, so nested batches never deadlock waiting for
// each other's workers.
func (r *Runner) RunBatch(specs []Spec) []*machine.Result {
	return r.RunBatchIn(BatchInfo{}, specs)
}

// RunBatchIn is RunBatch with observability context: the batch opens a
// "<phase>-batch" span under info.Span, each executed simulation is
// recorded under it with info.Phase attribution, and the engine's
// queue-depth/queue-wait/worker-occupancy accounting brackets the
// batch. Results are identical to RunBatch's.
func (r *Runner) RunBatchIn(info BatchInfo, specs []Spec) []*machine.Result {
	out := make([]*machine.Result, len(specs))

	// Deduplicate memoizable specs by key before fanning out: a worker
	// that picked up a duplicate would otherwise park on the flight its
	// own batch just started, running the batch below Parallelism.
	// Each distinct work item runs once and fans its result out to
	// every submission slot that asked for it.
	type item struct {
		spec    Spec
		targets []int
	}
	var items []*item
	byKey := map[string]*item{}
	for i, s := range specs {
		key := ""
		if !r.opt.DisableCache {
			key = s.memoKey(r)
		}
		if key != "" {
			if it, ok := byKey[key]; ok {
				it.targets = append(it.targets, i)
				r.ctr.hits.Add(1)
				continue
			}
		}
		it := &item{spec: s, targets: []int{i}}
		if key != "" {
			byKey[key] = it
		}
		items = append(items, it)
	}

	var batchSpan obs.Span
	if tr := r.opt.Tracer; tr != nil && len(items) > 0 {
		name := "batch"
		if info.Phase != "" {
			name = info.Phase + "-batch"
		}
		batchSpan = tr.Start(name, info.Span,
			obs.Int("specs", len(specs)), obs.Int("items", len(items)))
	}
	defer batchSpan.End()
	rc := runCtx{phase: info.Phase, parent: batchSpan.ID()}

	// Queue accounting: every distinct item is "queued" at submission
	// and leaves the queue when a worker claims it. The deferred
	// correction drains whatever an aborted (panicking) batch left
	// behind so the gauge cannot wedge above zero.
	submitted := time.Now()
	var claimed atomic.Int64
	r.ctr.queueDepth.Add(int64(len(items)))
	defer func() {
		r.ctr.queueDepth.Add(claimed.Load() - int64(len(items)))
	}()
	r.Each(len(items), func(i int) {
		claimed.Add(1)
		r.ctr.queueDepth.Add(-1)
		r.ctr.addPhase(PhaseQueueWait, time.Since(submitted))
		r.ctr.activeWorkers.Add(1)
		defer r.ctr.activeWorkers.Add(-1)
		res := r.run(items[i].spec, rc)
		for _, t := range items[i].targets {
			out[t] = res
		}
	})
	return out
}

// Each calls fn(i) for every i in [0, n) and returns once all calls
// have finished. It is the engine's one bounded fan-out: each call
// starts at most Parallelism goroutines of its own, which claim indices
// in order, and at Parallelism 1 the calls run inline in index order.
// Because no pool is shared between calls, an fn that itself calls
// Each or RunBatch can never deadlock waiting for the outer call's
// workers.
//
// A panicking fn (an experiment-construction or simulator bug) must
// surface on the calling goroutine, as it would serially — not kill the
// process from an unrecoverable worker goroutine. Workers capture the
// first panic and stop claiming indices; Each re-raises it once every
// worker has stopped.
func (r *Runner) Each(n int, fn func(i int)) {
	workers := min(r.opt.parallelism(), n)
	if workers <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var aborted atomic.Bool
	var panicOnce sync.Once
	var panicked any
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicOnce.Do(func() { panicked = p })
					aborted.Store(true)
				}
			}()
			for !aborted.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// MemoShardSizes returns the entry count of each singleflight memo
// shard (length MemoShards). A roughly even spread is the health
// signal striping depends on; the serve /metrics endpoint exports it
// per shard. Safe to call while runs are in flight — each shard is
// read under its own lock, so the snapshot is per-shard consistent.
func (r *Runner) MemoShardSizes() []int {
	out := make([]int, MemoShards)
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		out[i] = len(sh.cache)
		sh.mu.Unlock()
	}
	return out
}

// Stats is a snapshot of the engine's execution counters.
type Stats struct {
	// Parallelism is the effective worker count.
	Parallelism int
	// Simulations counts machine runs actually executed.
	Simulations uint64
	// MemoHits counts requests satisfied without a new simulation
	// (cached results and singleflight joins on in-flight runs).
	MemoHits uint64
	// DiskHits counts results loaded from the persistent store
	// (Options.CacheDir) instead of simulated. Disk hits are not also
	// memo hits: the first request for a key that lands on disk counts
	// here, later in-process requests for it count as memo hits.
	DiskHits uint64
	// BusySeconds is summed host time spent inside simulations; with
	// Simulations it sizes the work the memo cache and worker pool
	// saved. BusySeconds / elapsed wall time is the effective parallel
	// speedup over a serial engine.
	BusySeconds float64
	// Phases breaks engine time down by named phase (sorted by name):
	// simulation phases labeled by the submitting batch ("probe",
	// "oracle", "resim", plain "sim"), engine overheads ("memo-wait",
	// "disk-load", "disk-save", "queue-wait"), and upper-layer work
	// added through Runner.AddPhase ("compile", "predict", "episode").
	// Wall-clock attribution only — never an input to any result.
	Phases []PhaseStat
	// QueueDepth and ActiveWorkers are instantaneous gauges: batch
	// items awaiting a worker, and workers inside a simulation, at
	// snapshot time. Both are zero between batches.
	QueueDepth    int
	ActiveWorkers int
}

// PhaseStat is one phase's share of engine activity.
type PhaseStat struct {
	Name    string
	Count   uint64
	Seconds float64
}

// Delta returns the counter movement from before to s (Parallelism and
// the gauges carry over unchanged; phases subtract by name, dropping
// phases with no movement). CLI footers and the core session report
// per-run engine activity as deltas around a run.
func (s Stats) Delta(before Stats) Stats {
	prev := make(map[string]PhaseStat, len(before.Phases))
	for _, p := range before.Phases {
		prev[p.Name] = p
	}
	var phases []PhaseStat
	for _, p := range s.Phases {
		d := PhaseStat{
			Name:    p.Name,
			Count:   p.Count - prev[p.Name].Count,
			Seconds: p.Seconds - prev[p.Name].Seconds,
		}
		if d.Count > 0 || d.Seconds > 0 {
			phases = append(phases, d)
		}
	}
	return Stats{
		Parallelism:   s.Parallelism,
		Simulations:   s.Simulations - before.Simulations,
		MemoHits:      s.MemoHits - before.MemoHits,
		DiskHits:      s.DiskHits - before.DiskHits,
		BusySeconds:   s.BusySeconds - before.BusySeconds,
		Phases:        phases,
		QueueDepth:    s.QueueDepth,
		ActiveWorkers: s.ActiveWorkers,
	}
}

// Stats returns the runner's counters. Deltas around an experiment give
// per-experiment speedup: (busy after - busy before) / wall time. Every
// counter is read with an atomic load, so Stats is safe to call from
// any goroutine while runs are in flight — progress pollers (the serve
// status endpoint) read it concurrently with the worker pool.
func (r *Runner) Stats() Stats {
	return Stats{
		Parallelism:   r.opt.parallelism(),
		Simulations:   r.ctr.sims.Load(),
		MemoHits:      r.ctr.hits.Load(),
		DiskHits:      r.ctr.diskHits.Load(),
		BusySeconds:   time.Duration(r.ctr.busyNanos.Load()).Seconds(),
		Phases:        r.ctr.phaseStats(),
		QueueDepth:    int(r.ctr.queueDepth.Load()),
		ActiveWorkers: int(r.ctr.activeWorkers.Load()),
	}
}
