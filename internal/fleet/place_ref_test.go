package fleet

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/loadgen"
	"repro/internal/sched"
)

// The linear-scan placement the index replaced, kept as the reference
// every indexed decision is checked against. It reads only machStates:
// availability tests holdUntil <= now directly instead of the index's
// released-hold bookkeeping, so it also checks the release rule.

func (s *sim) refUp(mi int) bool {
	m := &s.machines[mi]
	return !m.down && !m.draining
}

func (s *sim) refAvail(mi int, now float64) bool {
	return s.refUp(mi) && s.machines[mi].holdUntil <= now
}

func (s *sim) refFgFree(mi int) bool {
	m := &s.machines[mi]
	return m.fg < 0 && len(m.queue) == 0
}

// refPickIndex returns the lowest-index machine satisfying ok, or -1.
func (s *sim) refPickIndex(ok func(int) bool) int {
	for mi := range s.machines {
		if ok(mi) {
			return mi
		}
	}
	return -1
}

// refPickLRU returns the machine satisfying ok that has been idle
// longest (ties to the lowest index), or -1.
func (s *sim) refPickLRU(ok func(int) bool) int {
	best := -1
	for mi := range s.machines {
		if !ok(mi) {
			continue
		}
		if best < 0 || s.machines[mi].lastFree < s.machines[best].lastFree {
			best = mi
		}
	}
	return best
}

// refShortestQueue returns the machine with the fewest waiting requests
// among those satisfying ok, ties to the lowest index; -1 when none.
func (s *sim) refShortestQueue(ok func(int) bool) int {
	best := -1
	for mi := range s.machines {
		if !ok(mi) {
			continue
		}
		if best < 0 || len(s.machines[mi].queue) < len(s.machines[best].queue) {
			best = mi
		}
	}
	return best
}

// refSelect is the scan version of selectMachine.
func (s *sim) refSelect(app int, now float64) (int, bool) {
	avail := func(mi int) bool { return s.refAvail(mi, now) }
	switch s.policy {
	case SpreadIdle:
		if mi := s.refPickLRU(func(mi int) bool {
			return avail(mi) && s.refFgFree(mi) && s.machines[mi].bg < 0
		}); mi >= 0 {
			return mi, false
		}
		if mi := s.refShortestQueue(func(mi int) bool {
			return avail(mi) && s.machines[mi].bg < 0
		}); mi >= 0 {
			return mi, false
		}
		if mi := s.refShortestQueue(avail); mi >= 0 {
			return mi, false
		}
		return s.refShortestQueue(s.refUp), false

	case PackPartition:
		sawFailing := false
		limit := s.def.slowdownLimit()
		compatible := func(mi int) bool {
			bg := s.machines[mi].bg
			return bg < 0 || s.o.pairOf(app, bg).FgSlowdown <= limit
		}
		for mi := range s.machines {
			m := &s.machines[mi]
			if !avail(mi) || !s.refFgFree(mi) || m.bg < 0 {
				continue
			}
			if s.o.pairOf(app, m.bg).FgSlowdown <= limit {
				return mi, false
			}
			sawFailing = true
		}
		rejected := sawFailing
		if mi := s.refPickIndex(func(mi int) bool {
			return avail(mi) && s.refFgFree(mi) && s.machines[mi].bg < 0 && s.machines[mi].used
		}); mi >= 0 {
			return mi, rejected
		}
		if mi := s.refPickIndex(func(mi int) bool {
			return avail(mi) && s.refFgFree(mi) && s.machines[mi].bg < 0
		}); mi >= 0 {
			return mi, rejected
		}
		if mi := s.refShortestQueue(func(mi int) bool {
			return avail(mi) && compatible(mi)
		}); mi >= 0 {
			return mi, rejected
		}
		if mi := s.refShortestQueue(avail); mi >= 0 {
			return mi, rejected
		}
		return s.refShortestQueue(s.refUp), rejected

	default: // UtilTarget
		if mi := s.refPickIndex(func(mi int) bool {
			return mi < s.prefixK && avail(mi) && s.refFgFree(mi) && s.machines[mi].bg >= 0
		}); mi >= 0 {
			return mi, false
		}
		if mi := s.refPickIndex(func(mi int) bool {
			return mi < s.prefixK && avail(mi) && s.refFgFree(mi)
		}); mi >= 0 {
			return mi, false
		}
		if mi := s.refShortestQueue(func(mi int) bool {
			return mi < s.prefixK && avail(mi)
		}); mi >= 0 {
			return mi, false
		}
		if mi := s.refShortestQueue(avail); mi >= 0 {
			return mi, false
		}
		return s.refShortestQueue(s.refUp), false
	}
}

// refBatch is the scan version of batchMachine.
func (s *sim) refBatch(now float64) int {
	eligible := func(mi int) bool {
		m := &s.machines[mi]
		return s.refAvail(mi, now) && m.bg < 0 && m.fg < 0 && len(m.queue) == 0
	}
	switch s.policy {
	case SpreadIdle:
		if mi := s.refPickLRU(func(mi int) bool { return eligible(mi) && !s.machines[mi].latencyUsed }); mi >= 0 {
			return mi
		}
		return s.refPickLRU(eligible)
	case PackPartition:
		if mi := s.refPickIndex(func(mi int) bool { return eligible(mi) && s.machines[mi].used }); mi >= 0 {
			return mi
		}
		return s.refPickIndex(eligible)
	default: // UtilTarget
		return s.refPickIndex(func(mi int) bool { return mi < s.prefixK && eligible(mi) })
	}
}

// checkIndex recomputes every machine's index membership from its
// machState at time now and reports the first disagreement — a missed
// touch shows here even before it changes a decision.
func (s *sim) checkIndex(now float64) error {
	x := &s.ix
	for mi := range s.machines {
		m := &s.machines[mi]
		has := func(b bitset) bool { return b[mi>>6]&(1<<(mi&63)) != 0 }
		avail := s.refAvail(mi, now)
		idle := avail && s.refFgFree(mi)
		for _, c := range []struct {
			name string
			set  bitset
			want bool
		}{
			{"up", x.up, s.refUp(mi)},
			{"avail", x.avail, avail},
			{"idle", x.idle, idle},
			{"noBg", x.noBg, m.bg < 0},
			{"used", x.used, m.used},
		} {
			if has(c.set) != c.want {
				return fmt.Errorf("machine %d: %s bit %v, state says %v", mi, c.name, !c.want, c.want)
			}
		}
		for a := range s.o.names {
			if has(x.res(a)) != (m.bg == a) {
				return fmt.Errorf("machine %d: resident[%d] bit disagrees with resident app %d", mi, a, m.bg)
			}
		}
		lru, fresh := math.Inf(1), math.Inf(1)
		if idle && m.bg < 0 {
			lru = m.lastFree
			if !m.latencyUsed {
				fresh = lru
			}
		}
		if x.byLRU && (x.lru.key[mi] != lru || x.fresh.key[mi] != fresh) {
			return fmt.Errorf("machine %d: LRU keys (%v, %v), state says (%v, %v)",
				mi, x.lru.key[mi], x.fresh.key[mi], lru, fresh)
		}
	}
	// The idle and noBg sets agree with the states, so the summary of
	// idle machines hosting a resident must agree with them.
	for w := range x.idle {
		if has, want := x.idleRes[w>>6]&(1<<(w&63)) != 0, x.idle[w]&^x.noBg[w] != 0; has != want {
			return fmt.Errorf("word %d: idle-resident summary bit %v, sets say %v", w, has, want)
		}
	}
	return nil
}

// placeCounts tallies what a differential run exercised.
type placeCounts struct {
	Decisions int // placement decisions checked
	Rejected  int // decisions where the partition check spilled a request
	Fallbacks int // requests queued behind a busy machine, or batch items with no slot
	HoldEdge  int // decisions at the exact instant a machine's hold expired
}

// diffPlacements replays def under each of its policies with every
// placement decision checked against the linear-scan reference and the
// index checked against the machine states. It fails t at the first
// divergence.
func diffPlacements(t *testing.T, r *sched.Runner, name string, def *Def) placeCounts {
	t.Helper()
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
	var c placeCounts
	for _, pol := range def.policies() {
		s := newSim(def, o, pol, arrivals, backlog)
		s.placed = func(app int, now float64, mi int, rejected bool) {
			c.Decisions++
			if rejected {
				c.Rejected++
			}
			if err := s.checkIndex(now); err != nil {
				t.Fatalf("%s/%s at t=%v: %v", name, pol, now, err)
			}
			var want int
			wantRej := false
			if app < 0 {
				want = s.refBatch(now)
				if want < 0 {
					c.Fallbacks++
				}
			} else {
				want, wantRej = s.refSelect(app, now)
				if want >= 0 && !s.refFgFree(want) {
					c.Fallbacks++
				}
			}
			if mi != want || rejected != wantRej {
				t.Fatalf("%s/%s at t=%v (app %d): index chose machine %d (rejected %v), scan %d (rejected %v)",
					name, pol, now, app, mi, rejected, want, wantRej)
			}
			for i := range s.machines {
				if h := s.machines[i].holdUntil; h > 0 && h == now {
					c.HoldEdge++
					break
				}
			}
		}
		s.run()
	}
	return c
}
