package fleet

import (
	"math"
	"math/bits"
	"slices"
)

// Placement. Every policy decision — which machine takes an arriving or
// evicted request, which takes the next batch item — is a query over a
// placement index that mirrors the machine states: bitsets over machine
// index for the predicates the tiers test, and min tournament trees for
// the least-recently-used picks. A query costs a word-wise AND per 64
// machines (or O(1) for an LRU pick) instead of a walk over every
// machState, and it returns exactly the machine the walk would have:
// the lowest index, the (lastFree, index) minimum for LRU, and the
// (queue length, index) minimum for shortest queue.
//
// The invariant: s.touch(mi) is called after every mutation of machine
// mi's state, so between mutations the index equals what touch would
// compute from the machStates. Hysteresis is the one time-dependent
// predicate; a held machine stays out of the avail and idle sets until
// a placement query at now >= holdUntil releases it (see release).

// bitset is a set of machine indices, one bit per machine.
type bitset []uint64

func (b bitset) set(i int, on bool) {
	if on {
		b[i>>6] |= 1 << (i & 63)
	} else {
		b[i>>6] &^= 1 << (i & 63)
	}
}

// lruTree is a min tournament tree keyed (lastFree, index): leaf i holds
// machine i's lastFree while it belongs to the tree's class and +Inf
// otherwise, and each inner node holds the winning leaf of its two
// children — the smaller key, ties to the left (lower-index) child — so
// the root is the class's least-recently-used machine.
type lruTree struct {
	key []float64 // by leaf; padded to a power of two with +Inf
	win []int32   // win[1] is the root; leaf i sits at win[len(key)+i]
}

// reset rebuilds the tree over n machines that all start as members
// keyed k0, reusing its arrays when they are large enough; touch then
// corrects any that are not members.
func (t *lruTree) reset(n int, k0 float64) {
	size := 1
	for size < n {
		size <<= 1
	}
	t.key, t.win = reuse(t.key, size), reuse(t.win, 2*size)
	for i := range t.key {
		t.key[i] = math.Inf(1)
		if i < n {
			t.key[i] = k0
		}
		t.win[size+i] = int32(i)
	}
	for p := size - 1; p >= 1; p-- {
		t.win[p] = t.better(t.win[2*p], t.win[2*p+1])
	}
}

// better returns the winner of leaves a < b.
func (t *lruTree) better(a, b int32) int32 {
	if t.key[b] < t.key[a] {
		return b
	}
	return a
}

// set rekeys leaf i (+Inf = not a member) and replays its matches.
func (t *lruTree) set(i int, k float64) {
	if t.key[i] == k {
		return
	}
	t.key[i] = k
	for p := (len(t.key) + i) >> 1; p >= 1; p >>= 1 {
		t.win[p] = t.better(t.win[2*p], t.win[2*p+1])
	}
}

// min returns the least-recently-used member, or -1 when the class is
// empty.
func (t *lruTree) min() int {
	w := t.win[1]
	if math.IsInf(t.key[w], 1) {
		return -1
	}
	return int(w)
}

// placeIndex is one episode's placement index.
type placeIndex struct {
	up    bitset // in service: not down, not draining
	avail bitset // up and out of any hysteresis hold
	idle  bitset // avail, latency slot empty, queue empty
	noBg  bitset // no batch resident
	used  bitset // ever hosted work
	// resident holds one set per app, back to back: res(a) is the
	// machines whose batch resident runs app a.
	resident bitset
	words    int // words per set
	// lru ranks idle resident-free machines; fresh ranks the ones of
	// them that never served a request. Only spread-idle picks by LRU,
	// so only its episodes maintain them (byLRU).
	lru, fresh lruTree
	byLRU      bool
	// held lists the machines whose hold has not been released yet.
	held []int
	// pass is the resident apps an arriving request may join under
	// pack-partition: pass[fg] lists the bg IDs whose co-location passes
	// slowdown_limit.
	pass [][]int
}

// reset sizes the index for n machines, napps interned apps and ups
// machine-up events, reusing its storage where large enough. Every set
// starts empty and, when byLRU, every tree leaf at lastFree -1, the key
// a fresh machine has; newSim then touches each machine once.
func (x *placeIndex) reset(n, napps, ups int, byLRU bool) {
	w := (n + 63) / 64
	x.up, x.avail, x.idle = reuse(x.up, w), reuse(x.avail, w), reuse(x.idle, w)
	x.noBg, x.used = reuse(x.noBg, w), reuse(x.used, w)
	x.resident, x.words = reuse(x.resident, napps*w), w
	x.held = slices.Grow(x.held[:0], ups)
	x.byLRU = byLRU
	if byLRU {
		x.lru.reset(n, -1)
		x.fresh.reset(n, -1)
	}
}

// res is the resident set of app a.
func (x *placeIndex) res(a int) bitset { return x.resident[a*x.words : (a+1)*x.words] }

// touch recomputes machine mi's membership in every set and tree from
// its machState. Call it after every mutation of the machine.
func (s *sim) touch(mi int) {
	m := &s.machines[mi]
	x := &s.ix
	up := !m.down && !m.draining
	avail := up && !m.held
	idle := avail && m.fg < 0 && len(m.queue) == 0
	noBg := m.bg < 0
	x.up.set(mi, up)
	x.avail.set(mi, avail)
	x.idle.set(mi, idle)
	x.noBg.set(mi, noBg)
	x.used.set(mi, m.used)
	for a := 0; a*x.words < len(x.resident); a++ {
		x.res(a).set(mi, a == m.bg)
	}
	if x.byLRU {
		lru, fresh := math.Inf(1), math.Inf(1)
		if idle && noBg {
			lru = m.lastFree
			if !m.latencyUsed {
				fresh = lru
			}
		}
		x.lru.set(mi, lru)
		x.fresh.set(mi, fresh)
	}
}

// hold keeps machine mi out of preferred placement until its
// holdUntil; the caller touches it.
func (s *sim) hold(mi int) {
	if m := &s.machines[mi]; !m.held {
		m.held = true
		s.ix.held = append(s.ix.held, mi)
	}
}

// release returns every held machine whose hold has expired by now to
// the index. Every placement query calls it first: an arrival at
// exactly holdUntil pops before the machine's evWake (arrivals sort
// first at equal times), yet the machine is already available to it.
func (s *sim) release(now float64) {
	keep := s.ix.held[:0]
	for _, mi := range s.ix.held {
		if m := &s.machines[mi]; m.holdUntil <= now {
			m.held = false
			s.touch(mi)
		} else {
			keep = append(keep, mi)
		}
	}
	s.ix.held = keep
}

// first returns the lowest machine index below lim whose bit is set in
// word(w), w being the index's 64-machine word, or -1.
func first(lim int, word func(w int) uint64) int {
	for w := 0; w<<6 < lim; w++ {
		if b := word(w); b != 0 {
			if mi := w<<6 + bits.TrailingZeros64(b); mi < lim {
				return mi
			}
			return -1
		}
	}
	return -1
}

// shortestQueue returns the machine below lim with the fewest waiting
// requests among those set in word(w), ties to the lowest index; -1
// when none qualifies. These are the fallbacks once every preferred
// tier is full, so a plain walk over the candidates suffices.
func (s *sim) shortestQueue(lim int, word func(w int) uint64) int {
	best, bestLen := -1, 0
	for w := 0; w<<6 < lim; w++ {
		for b := word(w); b != 0; b &= b - 1 {
			mi := w<<6 + bits.TrailingZeros64(b)
			if mi >= lim {
				break
			}
			if l := len(s.machines[mi].queue); best < 0 || l < bestLen {
				if l == 0 {
					return mi
				}
				best, bestLen = mi, l
			}
		}
	}
	return best
}

// selectMachine applies the consolidation policy to an arriving
// request of app and returns the chosen machine (and, for
// pack-partition, whether any co-location was rejected by the
// partition check). -1 means no machine is in service at all.
func (s *sim) selectMachine(app int, now float64) (int, bool) {
	s.release(now)
	x := &s.ix
	n := len(s.machines)
	avail := func(w int) uint64 { return x.avail[w] }
	up := func(w int) uint64 { return x.up[w] }
	switch s.policy {
	case SpreadIdle:
		// Fully idle machine, least-recently-used first; then the
		// shortest queue among resident-free machines. Machines hosting
		// a batch resident are avoided entirely — spread-idle is the
		// never-co-locate baseline — unless every machine has one
		// (batch_width >= machines, an operator choice).
		if mi := x.lru.min(); mi >= 0 {
			return mi, false
		}
		if mi := s.shortestQueue(n, func(w int) uint64 { return x.avail[w] & x.noBg[w] }); mi >= 0 {
			return mi, false
		}
		if mi := s.shortestQueue(n, avail); mi >= 0 {
			return mi, false
		}
		return s.shortestQueue(n, up), false

	case PackPartition:
		// Prefer co-locating with a resident that passes the partition
		// check; then reuse an already-powered machine; then open a
		// fresh one; then the shortest queue among machines whose
		// resident (if any) passes the check, so the limit is honored
		// when the queued request eventually dispatches. Only a fleet
		// where every machine hosts a failing resident falls through to
		// an unchecked queue. An arrival counts as rejected only when
		// the check actually spilled it — no idle machine's resident
		// passed and at least one idle machine's resident failed.
		pass := x.pass[app]
		passing := func(w int) uint64 {
			var b uint64
			for _, bg := range pass {
				b |= x.resident[bg*x.words+w]
			}
			return b
		}
		idleRes := func(w int) uint64 { return x.idle[w] &^ x.noBg[w] }
		if mi := first(n, func(w int) uint64 {
			if b := idleRes(w); b != 0 {
				return b & passing(w)
			}
			return 0
		}); mi >= 0 {
			return mi, false
		}
		// No idle resident passed, so any idle resident failed.
		rejected := first(n, idleRes) >= 0
		if mi := first(n, func(w int) uint64 { return x.idle[w] & x.noBg[w] & x.used[w] }); mi >= 0 {
			return mi, rejected
		}
		if mi := first(n, func(w int) uint64 { return x.idle[w] & x.noBg[w] }); mi >= 0 {
			return mi, rejected
		}
		if mi := s.shortestQueue(n, func(w int) uint64 { return x.avail[w] & (x.noBg[w] | passing(w)) }); mi >= 0 {
			return mi, rejected
		}
		if mi := s.shortestQueue(n, avail); mi >= 0 {
			return mi, rejected
		}
		return s.shortestQueue(n, up), rejected

	default: // UtilTarget
		// Everything lands inside the statically provisioned prefix,
		// fullest machines first, with no partition check — the
		// strawman whose tail the check exists to protect. A fully
		// down prefix spills outside it rather than stalling.
		k := s.prefixK
		if mi := first(k, func(w int) uint64 { return x.idle[w] &^ x.noBg[w] }); mi >= 0 {
			return mi, false
		}
		if mi := first(k, func(w int) uint64 { return x.idle[w] }); mi >= 0 {
			return mi, false
		}
		if mi := s.shortestQueue(k, avail); mi >= 0 {
			return mi, false
		}
		if mi := s.shortestQueue(n, avail); mi >= 0 {
			return mi, false
		}
		return s.shortestQueue(n, up), false
	}
}

// batchMachine returns the machine the policy gives the next batch
// item, or -1. A batch slot only accepts work on an idle machine with
// no resident — service times are fixed at dispatch, so a resident
// never appears under a running request.
func (s *sim) batchMachine(now float64) int {
	s.release(now)
	x := &s.ix
	switch s.policy {
	case SpreadIdle:
		// Keep batch away from latency traffic: machines that never
		// served a request first, least-recently-used within each
		// group.
		if mi := x.fresh.min(); mi >= 0 {
			return mi
		}
		return x.lru.min()
	case PackPartition:
		// Consolidate onto machines the fleet is already paying for;
		// open a fresh one only when none has a free slot.
		n := len(s.machines)
		if mi := first(n, func(w int) uint64 { return x.idle[w] & x.noBg[w] & x.used[w] }); mi >= 0 {
			return mi
		}
		return first(n, func(w int) uint64 { return x.idle[w] & x.noBg[w] })
	default: // UtilTarget
		return first(s.prefixK, func(w int) uint64 { return x.idle[w] & x.noBg[w] })
	}
}
