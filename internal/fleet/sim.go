package fleet

import (
	"math"
	"slices"
	"sync"

	"repro/internal/loadgen"
)

// The event loop. Each machine has two halves: a latency slot serving
// at most one request (FIFO queue behind it) and a batch slot hosting
// at most one resident backlog item. Requests are dispatched at
// arrival by the consolidation policy; their service time is fixed at
// dispatch from the oracle (alone, or co-located under the fleet's
// partition mode). Batch residents accrue iterations at the alone rate
// when the latency slot is empty and at the co-located rate while a
// request runs beside them. Everything downstream of the oracle is
// plain serial float arithmetic, so a fleet run is byte-identical at
// any engine parallelism.

const (
	evFgDone  = iota // a request completed (machine index)
	evBgDone         // a batch resident finished its item (machine index)
	evArrival        // a request arrived (trace index)
	evFleet          // a timeline event fired (Def.Events index)
	evWake           // hysteresis hold expired (machine index); placement retry only
)

type event struct {
	t    float64
	kind int
	idx  int
	ver  int // fgDone/bgDone staleness check
}

// eventHeap is a hand-rolled binary min-heap of events. container/heap
// would box every Push/Pop operand in an interface — one heap
// allocation per event on the loop's hottest edge — so the sift
// routines are typed and the loop runs allocation-free (pinned by
// TestSimRunAllocationFree). Determinism does not depend on the heap's
// internal arrangement: eventLess is a strict total order (no two live
// events compare equal — arrival/timeline indices are distinct, and
// completion versions bump per schedule), so every pop returns the
// unique minimum whichever implementation manages the array.
type eventHeap []event

// eventLess orders events by time, then kind, then index, then
// version — the deterministic tie-break every golden depends on.
func eventLess(a, b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.idx != b.idx {
		return a.idx < b.idx
	}
	return a.ver < b.ver
}

func (h *eventHeap) push(e event) {
	a := append(*h, e)
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(a[i], a[p]) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
	*h = a
}

func (h *eventHeap) pop() event {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a = a[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && eventLess(a[r], a[c]) {
			c = r
		}
		if !eventLess(a[c], a[i]) {
			break
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
	*h = a
	return top
}

func (s *sim) push(t float64, kind, idx, ver int) { s.events.push(event{t, kind, idx, ver}) }

// machState is one machine of the pool. Applications are the oracle's
// interned IDs.
type machState struct {
	fg    int   // active request's app ID (-1 = latency slot idle)
	fgReq int   // active request index
	fgVer int   // bumps per dispatch/eviction; voids stale fgDone events
	queue []int // waiting request indices, FIFO

	bg          int               // resident batch item's app ID (-1 = none)
	bgItem      loadgen.BatchItem // the resident item (valid while bg >= 0)
	bgRemaining float64           // iterations left
	bgRate      float64           // iterations per second at current occupancy
	bgVer       int

	down      bool    // out of service (failure, or a completed drain)
	draining  bool    // powering down once the active request completes
	holdUntil float64 // hysteresis: skipped by placement until then
	held      bool    // hold not yet released into the placement index

	used        bool
	latencyUsed bool
	lastFree    float64 // when the machine last became fully idle (LRU)

	accT    float64 // lazy-accounting timestamp
	socketJ float64
	wallJ   float64
	busySec float64
}

type reqState struct {
	arr    loadgen.Arrival
	app    int // arr.App's interned ID
	finish float64
	done   bool
	group  int // recovery group awaiting this request's re-placement (-1 = none)
}

// requeuedItem is an evicted batch item awaiting re-placement.
type requeuedItem struct {
	item  loadgen.BatchItem
	group int
}

// recGroup tracks one machine event's evictees: when the last one is
// re-placed, the group's time-to-recover is the gap since the event.
type recGroup struct {
	at          float64
	outstanding int
}

// sim is one policy's run over the shared trace.
type sim struct {
	def    *Def
	o      *oracle
	policy PolicyName

	machines []machState
	events   eventHeap
	reqs     []reqState
	backlog  []loadgen.BatchItem
	nextItem int // next backlog item to place
	resident int // batch residents currently placed
	maxBatch int // fleet-wide batch-width cap
	prefixK  int // util-target's static machine prefix
	ix       placeIndex
	// placed, when set, sees each placement decision as it is made —
	// request app (-1 for a batch item), time, machine, and whether the
	// partition check rejected a co-location. Production runs leave it
	// nil; the differential test checks every decision against a
	// linear-scan reference through it.
	placed func(app int, now float64, mi int, rejected bool)

	// Churn state (all zero on an event-free run).
	timeline []Event // def.Events; heap evFleet events index it
	// requeued is the FIFO of evicted batch items awaiting re-placement,
	// consumed from reqHead instead of re-slicing so one buffer serves
	// the whole run; the slice resets to its start whenever it drains.
	requeued    []requeuedItem
	reqHead     int
	pendingReqs []int // evicted/arrived requests with no live machine (rare)
	pendScratch []int // swap buffer so draining pendingReqs never re-allocates
	totalItems  int   // backlog items that must drain (arrivals - cancels)
	itemSeq     int   // next global item index for event arrivals
	groups      []recGroup
	evicted     int
	lostJobs    int
	migrated    int
	pendingRepl int
	peakRepl    int
	recoverMax  float64

	drained  int
	drainT   float64
	lastT    float64
	rejects  int
	coloc    int
	reallocs int
}

// simBuffers is an episode's bulk storage, handed from a finished sim
// to the next through simPool. A 10,000-machine episode's machine
// states, event heap and placement index run to megabytes, and a warm
// fleet replays one episode per policy in milliseconds: allocating
// them afresh each time made the heap — and the process RSS — grow and
// swing with the replay rate.
type simBuffers struct {
	machines []machState
	events   eventHeap
	reqs     []reqState
	backlog  []loadgen.BatchItem
	ix       placeIndex
}

var simPool = sync.Pool{New: func() any { return new(simBuffers) }}

// reuse returns b resized to n zeroed elements, reusing its backing
// array when it holds n.
func reuse[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	b = b[:n]
	clear(b)
	return b
}

// recycle hands the episode's storage to a later episode; s must not
// be used afterwards.
func (s *sim) recycle() {
	simPool.Put(&simBuffers{machines: s.machines, events: s.events, reqs: s.reqs, backlog: s.backlog, ix: s.ix})
}

func newSim(def *Def, o *oracle, policy PolicyName, arrivals []loadgen.Arrival, backlog []loadgen.BatchItem) *sim {
	// Size the heap for its worst concurrent population: every arrival
	// is pushed up front, plus the timeline, plus scheduled completions
	// and stale versions per machine that can hold work — never more
	// machines than work items. The slack keeps steady-state runs from
	// ever growing the array; a pathological run just grows it.
	busy := min(def.Machines, len(arrivals)+len(backlog))
	heapCap := len(arrivals) + len(def.Events) + 4*busy + 16
	b := simPool.Get().(*simBuffers)
	s := &sim{
		def: def, o: o, policy: policy,
		machines: reuse(b.machines, def.Machines),
		events:   slices.Grow(b.events[:0], heapCap),
		reqs:     reuse(b.reqs, len(arrivals)),
		// Each policy's sim owns its backlog: timeline events append to
		// and cancel from it, and the trace is shared across policies.
		backlog:  append(b.backlog[:0], backlog...),
		maxBatch: def.batchWidth(),
		ix:       b.ix,
	}
	for i, a := range arrivals {
		s.reqs[i] = reqState{arr: a, app: o.ids[a.App], group: -1}
		s.push(a.AtSeconds, evArrival, i, 0)
	}
	s.timeline = def.Events
	s.totalItems = len(backlog)
	s.itemSeq = len(backlog)
	ups := 0
	for i := range s.timeline {
		// load-scale was consumed by trace generation; machine and
		// batch events fire inside the loop, after arrivals at equal t.
		if s.timeline[i].Kind != EvLoadScale {
			s.push(s.timeline[i].At, evFleet, i, 0)
		}
		if s.timeline[i].Kind == EvMachineUp {
			ups++
		}
	}
	s.ix.reset(def.Machines, len(o.names), ups, policy == SpreadIdle)
	for i := range s.machines {
		m := &s.machines[i]
		m.fg, m.bg, m.fgReq, m.lastFree = -1, -1, -1, -1
		s.touch(i)
	}
	// pack-partition's check, per request app: the resident apps whose
	// co-location stays within slowdown_limit.
	limit := def.slowdownLimit()
	s.ix.pass = make([][]int, len(o.names))
	for fg := range o.names {
		for bg := range o.names {
			if o.pairOf(fg, bg).FgSlowdown <= limit {
				s.ix.pass[fg] = append(s.ix.pass[fg], bg)
			}
		}
	}
	// util-target provisions a static machine prefix sized so the
	// latency load alone fills it to the target: K = ceil(erlangs/U).
	erlangs := 0.0
	for _, c := range def.Arrivals {
		erlangs += c.Rate * o.aloneOf(c.App).Seconds
	}
	s.prefixK = int(math.Ceil(erlangs / def.utilTarget()))
	if s.prefixK < 1 {
		s.prefixK = 1
	}
	if s.prefixK > def.Machines {
		s.prefixK = def.Machines
	}
	return s
}

// account integrates energy and busy time on machine mi up to now and
// advances the batch resident's progress at the current rate.
func (s *sim) account(mi int, now float64) {
	m := &s.machines[mi]
	dt := now - m.accT
	if dt <= 0 {
		m.accT = now
		return
	}
	sw, ww := s.o.powerState(m.fg, m.bg)
	if m.down {
		sw, ww = 0, 0 // powered off: no idle draw while out of service
	}
	m.socketJ += sw * dt
	m.wallJ += ww * dt
	if m.fg >= 0 || m.bg >= 0 {
		m.busySec += dt
	}
	if m.bg >= 0 {
		m.bgRemaining -= m.bgRate * dt
		if m.bgRemaining < 0 {
			m.bgRemaining = 0
		}
	}
	m.accT = now
}

// setBgRate switches the resident's accrual rate (after account) and
// reschedules its completion event.
func (s *sim) setBgRate(mi int, rate, now float64) {
	m := &s.machines[mi]
	m.bgRate = rate
	m.bgVer++
	if rate > 0 {
		s.push(now+m.bgRemaining/rate, evBgDone, mi, m.bgVer)
	}
}

// dispatch starts request ri on machine mi at time now.
func (s *sim) dispatch(ri, mi int, now float64) {
	s.account(mi, now)
	m := &s.machines[mi]
	rq := &s.reqs[ri]
	if rq.group >= 0 {
		// An evicted request starting service is recovered.
		s.resolveReplace(rq.group, now)
		rq.group = -1
	}
	m.fg, m.fgReq = rq.app, ri
	m.fgVer++
	m.used, m.latencyUsed = true, true
	s.touch(mi)

	service := s.o.alone[rq.app].Seconds
	if m.bg >= 0 {
		p := s.o.pairOf(rq.app, m.bg)
		service = p.FgSeconds
		s.coloc++
		s.reallocs += p.Reallocs
		s.setBgRate(mi, p.BgRate, now)
	}
	s.push(now+service, evFgDone, mi, m.fgVer)
}

func (s *sim) onFgDone(mi, ver int, now float64) {
	m := &s.machines[mi]
	if ver != m.fgVer || m.fg < 0 {
		return // the request was evicted by a failure; this completion is void
	}
	s.account(mi, now)
	r := &s.reqs[m.fgReq]
	r.finish, r.done = now, true
	m.fg, m.fgReq = -1, -1
	if m.draining {
		// The deferred maintenance power-down: the queue and resident
		// were migrated at the drain event, so the machine is empty.
		m.draining = false
		m.down = true
		s.touch(mi)
		return
	}
	if m.bg >= 0 {
		s.setBgRate(mi, s.o.aloneRate(m.bg), now)
	} else {
		m.lastFree = now
	}
	if len(m.queue) > 0 {
		ri := m.queue[0]
		m.queue = m.queue[1:]
		s.dispatch(ri, mi, now)
		return
	}
	s.touch(mi)
}

func (s *sim) onBgDone(mi, ver int, now float64) {
	m := &s.machines[mi]
	if ver != m.bgVer {
		return // rate changed since this event was scheduled
	}
	s.account(mi, now)
	m.bg = -1
	m.bgRemaining = 0
	s.resident--
	s.drained++
	s.drainT = now
	if m.fg < 0 {
		m.lastFree = now
	}
	s.touch(mi)
}

func (s *sim) onArrival(ri int, now float64) {
	s.placeRequest(ri, now)
}

// placeRequest routes a request — arriving or evicted — through the
// consolidation policy. With no live machine at all (every machine
// down or draining, only possible mid-timeline) it pends until the
// next machine-up.
func (s *sim) placeRequest(ri int, now float64) {
	mi, rejected := s.selectMachine(s.reqs[ri].app, now)
	if s.placed != nil {
		s.placed(s.reqs[ri].app, now, mi, rejected)
	}
	if rejected {
		s.rejects++
	}
	if mi < 0 {
		s.pendingReqs = append(s.pendingReqs, ri)
		return
	}
	m := &s.machines[mi]
	if m.fg < 0 {
		s.dispatch(ri, mi, now)
	} else {
		m.queue = append(m.queue, ri)
		s.touch(mi)
	}
}

// requeuedLen is the number of evicted items still awaiting
// re-placement (the live window of the requeued buffer).
func (s *sim) requeuedLen() int { return len(s.requeued) - s.reqHead }

// placeBatch assigns queued backlog items to batch slots until the
// width cap or the eligible machines are exhausted.
func (s *sim) placeBatch(now float64) {
	for (s.requeuedLen() > 0 || s.nextItem < len(s.backlog)) && s.resident < s.maxBatch {
		mi := s.batchMachine(now)
		if s.placed != nil {
			s.placed(-1, now, mi, false)
		}
		if mi < 0 {
			return
		}
		// Evicted items re-place ahead of the untouched backlog — they
		// were already in progress when their machine went away.
		var item loadgen.BatchItem
		group := -1
		if s.requeuedLen() > 0 {
			item, group = s.requeued[s.reqHead].item, s.requeued[s.reqHead].group
			s.reqHead++
			if s.reqHead == len(s.requeued) {
				s.requeued = s.requeued[:0]
				s.reqHead = 0
			}
		} else {
			item = s.backlog[s.nextItem]
			s.nextItem++
		}
		s.resident++
		s.account(mi, now)
		m := &s.machines[mi]
		m.bg = s.o.ids[item.App]
		m.bgItem = item
		m.bgRemaining = item.Iterations
		m.used = true
		s.touch(mi)
		if group >= 0 {
			s.resolveReplace(group, now)
		}
		s.setBgRate(mi, s.o.aloneRate(m.bg), now)
	}
}

// run executes the event loop to completion and returns the last
// event time.
func (s *sim) run() float64 {
	s.placeBatch(0)
	for len(s.events) > 0 {
		e := s.events.pop()
		if e.kind != evWake {
			// Synthetic hysteresis wake-ups retry placement but are not
			// part of the run's observable timeline.
			s.lastT = e.t
		}
		switch e.kind {
		case evFgDone:
			s.onFgDone(e.idx, e.ver, e.t)
		case evBgDone:
			s.onBgDone(e.idx, e.ver, e.t)
		case evArrival:
			s.onArrival(e.idx, e.t)
		case evFleet:
			s.onFleetEvent(e.idx, e.t)
		}
		s.placeBatch(e.t)
	}
	return s.lastT
}

// addPending enrolls one evicted job in a recovery group and tracks
// the re-placement backlog's peak.
func (s *sim) addPending(g int) {
	s.groups[g].outstanding++
	s.pendingRepl++
	if s.pendingRepl > s.peakRepl {
		s.peakRepl = s.pendingRepl
	}
}

// resolveReplace marks one evicted job re-placed; when it was its
// group's last, the group's time-to-recover is final.
func (s *sim) resolveReplace(g int, now float64) {
	s.pendingRepl--
	gr := &s.groups[g]
	gr.outstanding--
	if gr.outstanding == 0 {
		if d := now - gr.at; d > s.recoverMax {
			s.recoverMax = d
		}
	}
}

// tagReq enrolls a request in a recovery group. A request evicted a
// second time moves to the newer event's group, settling its previous
// group's ledger at the re-eviction time.
func (s *sim) tagReq(ri, g int, now float64) {
	rq := &s.reqs[ri]
	if rq.group >= 0 {
		s.resolveReplace(rq.group, now)
	}
	rq.group = g
	s.addPending(g)
}

// onFleetEvent applies one timeline entry.
func (s *sim) onFleetEvent(i int, now float64) {
	ev := s.timeline[i]
	switch ev.Kind {
	case EvMachineDown:
		s.onMachineDown(ev, now)
	case EvMachineUp:
		s.onMachineUp(ev, now)
	case EvBatchArrival:
		items := eventItems(ev, i, s.itemSeq)
		s.itemSeq += len(items)
		s.backlog = append(s.backlog, items...)
		s.totalItems += len(items)
	case EvBatchCancel:
		n := ev.Count
		if n == 0 {
			n = 1
		}
		s.cancelItems(ev.App, n, now)
	}
}

// onMachineDown takes a machine out of service. A failure (no drain)
// loses in-progress work: the active request restarts elsewhere and a
// resident batch item restarts from its full iteration count. A drain
// migrates the queue and resident with progress kept, lets the active
// request finish in place, and powers down afterwards.
func (s *sim) onMachineDown(ev Event, now float64) {
	mi := ev.Machine
	s.account(mi, now)
	m := &s.machines[mi]
	g := -1
	group := func() int {
		if g < 0 {
			s.groups = append(s.groups, recGroup{at: now})
			g = len(s.groups) - 1
		}
		return g
	}
	if m.bg >= 0 {
		item := m.bgItem
		if ev.Drain {
			item.Iterations = m.bgRemaining
			s.migrated++
		} else {
			s.lostJobs++
		}
		s.evicted++
		s.requeued = append(s.requeued, requeuedItem{item: item, group: group()})
		s.addPending(group())
		m.bg, m.bgRemaining = -1, 0
		m.bgVer++
		s.resident--
	}
	// Queued requests never started; they migrate without losing work
	// under failure and drain alike.
	moved := m.queue
	m.queue = nil
	for _, ri := range moved {
		s.evicted++
		s.migrated++
		s.tagReq(ri, group(), now)
	}
	act := -1
	if m.fg >= 0 {
		if ev.Drain {
			m.draining = true
		} else {
			act = m.fgReq
			m.fgVer++ // the scheduled completion is void
			m.fg, m.fgReq = -1, -1
			s.evicted++
			s.lostJobs++
			s.tagReq(act, group(), now)
		}
	}
	if !m.draining {
		m.down = true
	}
	s.touch(mi)
	// Re-place through the active policy: the interrupted request
	// first, then the queue in FIFO order; placeBatch (called after
	// every event) re-places the requeued item.
	if act >= 0 {
		s.placeRequest(act, now)
	}
	for _, ri := range moved {
		s.placeRequest(ri, now)
	}
}

// onMachineUp returns a machine to service; the hysteresis hold keeps
// it out of preferred placement until the hold expires.
func (s *sim) onMachineUp(ev Event, now float64) {
	mi := ev.Machine
	s.account(mi, now)
	m := &s.machines[mi]
	if m.draining {
		m.draining = false // the drain had not completed; cancel the power-down
	} else {
		m.down = false
		m.lastFree = now
		if h := s.def.Hysteresis; h > 0 {
			m.holdUntil = now + h
			s.push(m.holdUntil, evWake, mi, 0)
			s.hold(mi)
		}
	}
	s.touch(mi)
	if len(s.pendingReqs) > 0 {
		// Swap in the scratch buffer rather than nil: placeRequest may
		// re-pend a request mid-drain, and it must land in a buffer that
		// does not alias the one being iterated.
		pend := s.pendingReqs
		s.pendingReqs = s.pendScratch[:0]
		for _, ri := range pend {
			s.placeRequest(ri, now)
		}
		s.pendScratch = pend[:0]
	}
}

// cancelItems removes up to n not-yet-placed items of app, newest
// first — the untouched backlog tail, then requeued evictees. Resident
// items keep running.
func (s *sim) cancelItems(app string, n int, now float64) {
	removed := 0
	for i := len(s.backlog) - 1; i >= s.nextItem && removed < n; i-- {
		if s.backlog[i].App != app {
			continue
		}
		s.backlog = append(s.backlog[:i], s.backlog[i+1:]...)
		removed++
	}
	for i := len(s.requeued) - 1; i >= s.reqHead && removed < n; i-- {
		if s.requeued[i].item.App != app {
			continue
		}
		if g := s.requeued[i].group; g >= 0 {
			s.resolveReplace(g, now)
		}
		s.requeued = append(s.requeued[:i], s.requeued[i+1:]...)
		removed++
	}
	s.totalItems -= removed
}

// aloneRate is the resident's iteration rate with the latency slot
// empty. The oracle rejects non-positive alone times, so it is finite.
func (o *oracle) aloneRate(app int) float64 { return 1 / o.alone[app].Seconds }

// batchWidth is the fleet-wide cap on concurrent batch residents
// (default: a quarter of the pool).
func (d *Def) batchWidth() int {
	if d.BatchWidth > 0 {
		return d.BatchWidth
	}
	w := d.Machines / 4
	if w < 1 {
		w = 1
	}
	return w
}
