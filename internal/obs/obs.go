// Package obs is the engine's zero-dependency observability layer: a
// nil-safe hierarchical span tracer with Chrome trace_event export and
// a hand-rolled Prometheus histogram. It exists so every layer of the
// stack (sched batches, fleet oracle phases, core sessions, the HTTP
// server) can attribute wall time without taking a dependency or
// perturbing results: a nil *Tracer is a valid no-op receiver, so the
// hot path pays one nil check when tracing is off, and timing data
// flows only through spans and stats — never into memo keys, reports,
// or any other deterministic output.
package obs

import (
	"sort"
	"strconv"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span. Values are strings so
// span records marshal trivially; use the String/Int/Int64 helpers.
type Attr struct {
	Key   string
	Value string
}

// String builds a string-valued attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer-valued attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// Int64 builds an integer-valued attribute from an int64.
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: strconv.FormatInt(v, 10)} }

// SpanID identifies a span within one tracer. The zero value means
// "no span" and is what nil tracers hand out; it is always safe to use
// as a parent.
type SpanID uint64

// SpanRecord is one completed span. Start is relative to the tracer's
// epoch so records order and subtract without wall-clock context.
type SpanRecord struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Lane   int // render track: nested spans share their parent's lane
	Start  time.Duration
	Dur    time.Duration
	Attrs  []Attr
}

// Span is a live span handle returned by Tracer.Start. The zero value
// (and any span from a nil tracer) is a no-op.
type Span struct {
	t  *Tracer
	id SpanID
}

// ID returns the span's identity for use as a child's parent.
func (s Span) ID() SpanID { return s.id }

// End completes the span, appending any final attributes. Ending a
// zero span, or ending twice, is a no-op.
func (s Span) End(attrs ...Attr) {
	if s.t != nil {
		s.t.end(s.id, attrs)
	}
}

// activeSpan tracks a started, not-yet-ended span.
type activeSpan struct {
	rec SpanRecord
}

// lane is one render track. Spans that nest (child starts while parent
// is the lane's innermost active span) share a lane; overlapping
// siblings spread across lanes so Chrome's renderer never stacks
// unrelated spans.
type lane struct {
	stack []SpanID      // active spans on this lane, outermost first
	end   time.Duration // end of the last completed span placed here
}

// DefaultLimit is the ring capacity New(0) provides: enough for every
// span of a mega-fleet run at quick scale with room to spare, small
// enough (~100 bytes/record) to sit in a long-lived server untended.
const DefaultLimit = 16384

// Tracer records hierarchical spans into a bounded in-memory ring.
// All methods are safe for concurrent use, and all methods are no-ops
// on a nil receiver — components hold a possibly-nil *Tracer and call
// it unconditionally.
type Tracer struct {
	epoch time.Time

	mu      sync.Mutex
	nextID  SpanID
	active  map[SpanID]*activeSpan
	lanes   []lane
	done    []SpanRecord // ring buffer, capacity limit
	head    int          // index of oldest record once the ring is full
	n       int          // records currently held
	limit   int
	dropped uint64
}

// New builds a tracer holding at most limit completed spans (0 =
// DefaultLimit). When the ring is full the oldest record is dropped
// and counted; exports state the drop count.
func New(limit int) *Tracer {
	if limit <= 0 {
		limit = DefaultLimit
	}
	return &Tracer{
		epoch:  time.Now(),
		nextID: 1,
		active: make(map[SpanID]*activeSpan),
		done:   make([]SpanRecord, limit),
		limit:  limit,
	}
}

// Start opens a span under parent (0 = root) and returns its handle.
// On a nil tracer it returns the zero Span.
func (t *Tracer) Start(name string, parent SpanID, attrs ...Attr) Span {
	if t == nil {
		return Span{}
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextID
	t.nextID++
	l := t.pickLane(parent, now)
	t.lanes[l].stack = append(t.lanes[l].stack, id)
	t.active[id] = &activeSpan{rec: SpanRecord{
		ID: id, Parent: parent, Name: name, Lane: l,
		Start: now, Attrs: append([]Attr(nil), attrs...),
	}}
	return Span{t: t, id: id}
}

// Record logs an already-measured interval as a completed span — the
// hot path's entry point. The engine measures a simulation once with
// one time.Now pair and feeds the same duration to its busy counter,
// its phase accumulator, and this call, so trace totals and stats
// totals agree exactly.
func (t *Tracer) Record(name string, parent SpanID, start time.Time, dur time.Duration, attrs ...Attr) {
	if t == nil {
		return
	}
	startD := start.Sub(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextID
	t.nextID++
	l := t.pickRecordLane(parent, startD, startD+dur)
	t.push(SpanRecord{
		ID: id, Parent: parent, Name: name, Lane: l,
		Start: startD, Dur: dur, Attrs: append([]Attr(nil), attrs...),
	})
}

// pickLane places a starting span: nested under its parent when the
// parent is the innermost active span of its lane, otherwise on the
// lowest free lane. Callers hold t.mu.
func (t *Tracer) pickLane(parent SpanID, now time.Duration) int {
	if p, ok := t.active[parent]; ok {
		l := p.rec.Lane
		if s := t.lanes[l].stack; len(s) > 0 && s[len(s)-1] == parent && t.lanes[l].end <= now {
			return l
		}
	}
	for i := range t.lanes {
		if len(t.lanes[i].stack) == 0 && t.lanes[i].end <= now {
			return i
		}
	}
	t.lanes = append(t.lanes, lane{})
	return len(t.lanes) - 1
}

// pickRecordLane places a pre-measured span, which never joins a lane
// stack: it nests visually under an active parent when the interval
// fits, else takes a free lane. Callers hold t.mu.
func (t *Tracer) pickRecordLane(parent SpanID, start, end time.Duration) int {
	if p, ok := t.active[parent]; ok {
		l := p.rec.Lane
		if s := t.lanes[l].stack; len(s) > 0 && s[len(s)-1] == parent && t.lanes[l].end <= start {
			t.lanes[l].end = end
			return l
		}
	}
	for i := range t.lanes {
		if len(t.lanes[i].stack) == 0 && t.lanes[i].end <= start {
			t.lanes[i].end = end
			return i
		}
	}
	t.lanes = append(t.lanes, lane{end: end})
	return len(t.lanes) - 1
}

func (t *Tracer) end(id SpanID, attrs []Attr) {
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	a, ok := t.active[id]
	if !ok {
		return // already ended, or recorded by a tracer restart
	}
	delete(t.active, id)
	rec := a.rec
	rec.Dur = now - rec.Start
	rec.Attrs = append(rec.Attrs, attrs...)
	l := rec.Lane
	for i := len(t.lanes[l].stack) - 1; i >= 0; i-- {
		if t.lanes[l].stack[i] == id {
			t.lanes[l].stack = append(t.lanes[l].stack[:i], t.lanes[l].stack[i+1:]...)
			break
		}
	}
	if t.lanes[l].end < now {
		t.lanes[l].end = now
	}
	t.push(rec)
}

// push appends a completed record to the ring. Callers hold t.mu.
func (t *Tracer) push(rec SpanRecord) {
	if t.n == t.limit {
		t.done[t.head] = rec
		t.head = (t.head + 1) % t.limit
		t.dropped++
		return
	}
	t.done[(t.head+t.n)%t.limit] = rec
	t.n++
}

// Len returns the number of completed spans currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Dropped returns how many completed spans the bounded ring evicted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Snapshot returns the completed spans ordered by start time (ties by
// ID). It is safe to call while spans are being recorded; in-flight
// (unended) spans are not included.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]SpanRecord, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, t.done[(t.head+i)%t.limit])
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}
