package sched

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// goid returns the calling goroutine's id from its stack header
// ("goroutine N [running]:").
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// TestEachRunsEveryIndexOnce: every index in [0, n) is handed to fn
// exactly once, at any parallelism and whether n is below or above it.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		for _, n := range []int{0, 1, 3, 100} {
			r := New(Options{Parallelism: par})
			counts := make([]atomic.Int32, n)
			r.Each(n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("parallelism %d, n %d: index %d ran %d times", par, n, i, c)
				}
			}
		}
	}
}

// TestEachBoundsInFlight: no more than Parallelism calls of one Each
// are ever in flight (atomic high-water mark), and never more than n.
func TestEachBoundsInFlight(t *testing.T) {
	for _, tc := range []struct{ par, n, limit int }{
		{1, 20, 1}, {3, 40, 3}, {8, 40, 8}, {8, 3, 3},
	} {
		r := New(Options{Parallelism: tc.par})
		var inFlight, high atomic.Int32
		r.Each(tc.n, func(int) {
			cur := inFlight.Add(1)
			for {
				h := high.Load()
				if cur <= h || high.CompareAndSwap(h, cur) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
		})
		if h := int(high.Load()); h > tc.limit || h < 1 {
			t.Errorf("parallelism %d, n %d: %d calls in flight at once, want 1..%d",
				tc.par, tc.n, h, tc.limit)
		}
	}
}

// TestEachSerialRunsInlineInOrder: at Parallelism 1 every call runs on
// the caller's goroutine, in index order.
func TestEachSerialRunsInlineInOrder(t *testing.T) {
	r := New(Options{Parallelism: 1})
	caller := goid()
	var order []int
	r.Each(10, func(i int) {
		if g := goid(); g != caller {
			t.Errorf("index %d ran on goroutine %s, want the caller's %s", i, g, caller)
		}
		order = append(order, i)
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("serial order %v, want 0..9", order)
		}
	}
	if len(order) != 10 {
		t.Fatalf("serial run covered %d indices, want 10", len(order))
	}
}

// TestEachPanicAfterWorkersStop: a panicking call is re-raised on the
// caller, and only once every other worker has stopped — calls already
// in flight finish first.
func TestEachPanicAfterWorkersStop(t *testing.T) {
	const workers = 4
	r := New(Options{Parallelism: workers})
	var started sync.WaitGroup
	started.Add(workers)
	var finished atomic.Int32
	got := func() (p any) {
		defer func() { p = recover() }()
		r.Each(workers, func(i int) {
			started.Done()
			if i == 0 {
				// Panic only once every worker holds an index, so the
				// others are mid-call when the panic is captured.
				started.Wait()
				panic("boom")
			}
			time.Sleep(20 * time.Millisecond)
			finished.Add(1)
		})
		return nil
	}()
	if got != "boom" {
		t.Fatalf("re-raised %v, want the worker's panic", got)
	}
	if f := finished.Load(); f != workers-1 {
		t.Errorf("panic re-raised with %d of %d in-flight calls finished", f, workers-1)
	}
}
