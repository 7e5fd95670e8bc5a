package cache

import (
	"fmt"
	"math/bits"
)

// Level identifies where in the hierarchy a demand access was satisfied.
type Level int

// Hierarchy levels, in lookup order.
const (
	LevelL1 Level = iota + 1
	LevelL2
	LevelLLC
	LevelMem
)

// String returns the conventional name of the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelLLC:
		return "LLC"
	case LevelMem:
		return "MEM"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// HierarchyConfig describes the per-core private caches and the shared
// LLC. Defaults (via SandyBridgeHierarchy) model the paper's platform.
type HierarchyConfig struct {
	Cores     int
	LineBytes int
	L1I, L1D  Config
	L2        Config
	LLC       Config
	// NonInclusiveLLC disables inclusion enforcement: LLC evictions no
	// longer back-invalidate private caches. The prototype's LLC is
	// inclusive; this flag exists for the ablation study quantifying
	// how much of the small-allocation pathology (§3.2) comes from
	// inclusion victims.
	NonInclusiveLLC bool
}

// SandyBridgeHierarchy returns the hierarchy of the prototype: per-core
// 32 KB 8-way L1I and L1D, 256 KB 8-way non-inclusive L2, and a shared
// 6 MB 12-way inclusive LLC with hashed indexing.
func SandyBridgeHierarchy(cores int) HierarchyConfig {
	return HierarchyConfig{
		Cores:     cores,
		LineBytes: 64,
		L1I:       Config{Name: "L1I", SizeBytes: 32 << 10, Assoc: 8, LineBytes: 64},
		L1D:       Config{Name: "L1D", SizeBytes: 32 << 10, Assoc: 8, LineBytes: 64},
		L2:        Config{Name: "L2", SizeBytes: 256 << 10, Assoc: 8, LineBytes: 64},
		LLC:       Config{Name: "LLC", SizeBytes: 6 << 20, Assoc: 12, LineBytes: 64, HashIndex: true},
	}
}

// CoreStats aggregates per-core demand traffic through the hierarchy.
// LLCAccesses counts L2 misses (the paper's "LLC accesses per
// kilo-instruction" metric); LLCMisses counts demand fetches from DRAM.
type CoreStats struct {
	L1IAccesses, L1IMisses uint64
	L1DAccesses, L1DMisses uint64
	L2Accesses, L2Misses   uint64
	LLCAccesses, LLCMisses uint64
	LLCPrefetchFills       uint64 // prefetch lines fetched from DRAM into the LLC
	DRAMReadBytes          uint64
	DRAMWriteBytes         uint64
	BackInvalidations      uint64 // lines this core lost to LLC inclusion victims
}

// AccessOutcome reports one demand access's effect: the level that
// satisfied it and the DRAM traffic it generated (fill reads plus any
// dirty writebacks cascading out of the LLC).
type AccessOutcome struct {
	Level          Level
	DRAMReadBytes  int
	DRAMWriteBytes int
	// HitPrefetched reports that the satisfying line was brought in by a
	// prefetcher and this is its first demand use. The timing model uses
	// it to charge late-prefetch penalties under bandwidth contention.
	HitPrefetched bool
}

// Hierarchy is the full simulated cache system: private L1I/L1D/L2 per
// core and one shared, inclusive, way-partitioned LLC.
type Hierarchy struct {
	cfg   HierarchyConfig
	l1i   []*Cache
	l1d   []*Cache
	l2    []*Cache
	llc   *Cache
	masks []WayMask // per-core LLC replacement masks ("MSR" block)
	stats []CoreStats
	umons []*UMON // per-core shadow utility monitors (nil until attached)

	// coreValid holds the core-valid bits of each LLC slot
	// (set*assoc+way), as Sandy Bridge's inclusive LLC keeps them per
	// line: core c is bit c%coreValidBits. They are a superset of the
	// cores whose private caches hold the slot's line — every private
	// fill follows an LLC hit or fill by the same core, or an L2 hit,
	// which implies one since the slot was last filled — so an LLC
	// eviction snoops only the marked cores.
	coreValid []uint16

	l1Full, l2Full WayMask // precomputed full masks for the private fills
}

// coreValidBits is the width of a core-valid entry. Above that many
// cores the bits fold: core c shares bit c%coreValidBits with c±16, and
// a snoop of a set bit visits every core that maps to it.
const coreValidBits = 16

// coreBit is core c's core-valid bit.
func coreBit(c int) uint16 { return 1 << uint(c%coreValidBits) }

// NewHierarchy builds the hierarchy with every core granted the full LLC
// mask (the machine's power-on state).
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if cfg.Cores <= 0 {
		panic("cache: hierarchy needs at least one core")
	}
	h := &Hierarchy{
		cfg:    cfg,
		llc:    New(cfg.LLC),
		masks:  make([]WayMask, cfg.Cores),
		stats:  make([]CoreStats, cfg.Cores),
		l1Full: FullMask(cfg.L1D.Assoc),
		l2Full: FullMask(cfg.L2.Assoc),
	}
	h.coreValid = make([]uint16, len(h.llc.tags))
	full := FullMask(cfg.LLC.Assoc)
	for c := 0; c < cfg.Cores; c++ {
		l1i := cfg.L1I
		l1i.Name = fmt.Sprintf("L1I.%d", c)
		l1d := cfg.L1D
		l1d.Name = fmt.Sprintf("L1D.%d", c)
		l2 := cfg.L2
		l2.Name = fmt.Sprintf("L2.%d", c)
		h.l1i = append(h.l1i, New(l1i))
		h.l1d = append(h.l1d, New(l1d))
		h.l2 = append(h.l2, New(l2))
		h.masks[c] = full
	}
	return h
}

// Cores returns the core count.
func (h *Hierarchy) Cores() int { return h.cfg.Cores }

// LineBytes returns the line size shared by all levels.
func (h *Hierarchy) LineBytes() int { return h.cfg.LineBytes }

// LLC exposes the shared cache (read-only use intended: stats, occupancy).
func (h *Hierarchy) LLC() *Cache { return h.llc }

// L2 exposes core c's private L2.
func (h *Hierarchy) L2(c int) *Cache { return h.l2[c] }

// L1D exposes core c's private L1 data cache.
func (h *Hierarchy) L1D(c int) *Cache { return h.l1d[c] }

// L1I exposes core c's private L1 instruction cache.
func (h *Hierarchy) L1I(c int) *Cache { return h.l1i[c] }

// SetWayMask assigns core c's LLC replacement mask. Matching the
// prototype, no data moves or flushes: resident lines outside the new
// mask stay readable until another core's fill displaces them.
func (h *Hierarchy) SetWayMask(c int, m WayMask) {
	if m == 0 || m&^FullMask(h.cfg.LLC.Assoc) != 0 {
		panic(fmt.Sprintf("cache: invalid LLC way mask %s for core %d", m, c))
	}
	h.masks[c] = m
}

// WayMaskOf returns core c's current LLC replacement mask.
func (h *Hierarchy) WayMaskOf(c int) WayMask { return h.masks[c] }

// CoreStats returns a copy of core c's counters.
func (h *Hierarchy) CoreStats(c int) CoreStats { return h.stats[c] }

// AttachUMON installs a shadow utility monitor on core c's demand LLC
// accesses. Monitors only observe — cache state and statistics are
// unaffected — so attaching one never changes simulation results. A
// job spanning several cores attaches the same monitor to each, giving
// one aggregated curve per job.
func (h *Hierarchy) AttachUMON(c int, u *UMON) {
	if h.umons == nil {
		h.umons = make([]*UMON, h.cfg.Cores)
	}
	h.umons[c] = u
}

// ResetCoreStats zeroes per-core counters (cache contents are preserved,
// mirroring how performance counters are reprogrammed on live hardware).
func (h *Hierarchy) ResetCoreStats() {
	for i := range h.stats {
		h.stats[i] = CoreStats{}
	}
}

// Access performs one demand reference by core c. instr selects the L1I
// path; write marks lines dirty (write-back, write-allocate). The
// returned outcome carries the satisfying level and DRAM traffic.
func (h *Hierarchy) Access(c int, lineAddr uint64, write, instr bool) AccessOutcome {
	st := &h.stats[c]
	var l1 *Cache
	if instr {
		l1 = h.l1i[c]
		st.L1IAccesses++
	} else {
		l1 = h.l1d[c]
		st.L1DAccesses++
	}
	// Private levels are lookup-only on the demand path: allocation
	// happens via the fill helpers so every victim's writeback is
	// cascaded rather than dropped.
	if r := l1.Lookup(lineAddr, write); r.Hit {
		return AccessOutcome{Level: LevelL1, HitPrefetched: r.WasPrefetched}
	}
	if instr {
		st.L1IMisses++
	} else {
		st.L1DMisses++
	}

	out := AccessOutcome{}
	st.L2Accesses++
	l2 := h.l2[c]
	if r := l2.Lookup(lineAddr, false); r.Hit {
		out.Level = LevelL2
		out.HitPrefetched = r.WasPrefetched
		h.fillL1(c, l1, lineAddr, write, &out)
		return out
	}
	st.L2Misses++

	st.LLCAccesses++
	if h.umons != nil {
		if u := h.umons[c]; u != nil {
			u.Access(lineAddr)
		}
	}
	llcRes := h.llc.Access(lineAddr, false, h.masks[c])
	if llcRes.Hit {
		h.coreValid[h.llc.slot] |= coreBit(c)
		out.Level = LevelLLC
		out.HitPrefetched = llcRes.WasPrefetched
	} else {
		st.LLCMisses++
		out.Level = LevelMem
		out.DRAMReadBytes += h.cfg.LineBytes
		st.DRAMReadBytes += uint64(h.cfg.LineBytes)
		h.handleLLCEviction(c, llcRes.Evicted, &out, st)
	}

	// Fill the private levels on the way back.
	h.fillL2(c, lineAddr, &out, st)
	h.fillL1(c, l1, lineAddr, write, &out)
	return out
}

// fillL2 inserts lineAddr into core c's L2, cascading a dirty victim into
// the LLC (or DRAM if the LLC no longer holds it). Only the demand-miss
// path calls it, after l2.Lookup missed and nothing could have inserted
// the line since, so the scan-free FillMiss applies.
func (h *Hierarchy) fillL2(c int, lineAddr uint64, out *AccessOutcome, st *CoreStats) {
	r := h.l2[c].FillMiss(lineAddr, h.l2Full, false, false)
	if r.Evicted.Valid && r.Evicted.Dirty {
		h.sinkWriteback(r.Evicted.LineAddr, out, st)
	}
}

// fillL1 inserts lineAddr into the chosen L1, cascading a dirty victim
// into L2 (non-inclusive: it may be absent), then LLC, then DRAM. Like
// fillL2 it runs only after the L1 lookup missed, so FillMiss applies.
func (h *Hierarchy) fillL1(c int, l1 *Cache, lineAddr uint64, write bool, out *AccessOutcome) {
	r := l1.FillMiss(lineAddr, h.l1Full, write, false)
	if r.Evicted.Valid && r.Evicted.Dirty {
		st := &h.stats[c]
		if h.l2[c].MarkDirty(r.Evicted.LineAddr) {
			return
		}
		h.sinkWriteback(r.Evicted.LineAddr, out, st)
	}
}

// sinkWriteback lands a dirty line in the LLC if resident, else in DRAM.
func (h *Hierarchy) sinkWriteback(lineAddr uint64, out *AccessOutcome, st *CoreStats) {
	if h.llc.MarkDirty(lineAddr) {
		return
	}
	if out != nil {
		out.DRAMWriteBytes += h.cfg.LineBytes
	}
	st.DRAMWriteBytes += uint64(h.cfg.LineBytes)
}

// handleLLCEviction follows core c's LLC fill, which displaced ev from
// the slot the fill took. The slot's core-valid bits become c's alone,
// and inclusion is enforced: every private copy of ev is invalidated;
// if any copy (or the LLC line) was dirty, the line is written back to
// DRAM. Only the cores the displaced line's core-valid bits name can
// hold a copy; invalidating an absent line changes nothing, so skipping
// the others is exact.
func (h *Hierarchy) handleLLCEviction(c int, ev Eviction, out *AccessOutcome, st *CoreStats) {
	s := h.llc.slot
	sharers := h.coreValid[s]
	h.coreValid[s] = coreBit(c)
	if !ev.Valid {
		return
	}
	if h.cfg.NonInclusiveLLC {
		// Victim caches keep their copies; only the LLC's dirty data
		// must reach DRAM.
		if ev.Dirty {
			if out != nil {
				out.DRAMWriteBytes += h.cfg.LineBytes
			}
			st.DRAMWriteBytes += uint64(h.cfg.LineBytes)
		}
		return
	}
	dirty := ev.Dirty
	for m := sharers; m != 0; m &= m - 1 {
		for sc := bits.TrailingZeros16(m); sc < h.cfg.Cores; sc += coreValidBits {
			if found, d := h.l1i[sc].Invalidate(ev.LineAddr); found {
				h.stats[sc].BackInvalidations++
				dirty = dirty || d
			}
			if found, d := h.l1d[sc].Invalidate(ev.LineAddr); found {
				h.stats[sc].BackInvalidations++
				dirty = dirty || d
			}
			if found, d := h.l2[sc].Invalidate(ev.LineAddr); found {
				h.stats[sc].BackInvalidations++
				dirty = dirty || d
			}
		}
	}
	if dirty {
		if out != nil {
			out.DRAMWriteBytes += h.cfg.LineBytes
		}
		st.DRAMWriteBytes += uint64(h.cfg.LineBytes)
	}
}

// PrefetchFill models a hardware prefetch issued on behalf of core c.
// intoL1 selects the DCU (L1) prefetchers; otherwise the line lands in L2
// (MLC prefetchers). Inclusion is preserved: the line is also allocated
// in the LLC under core c's mask. The returned outcome carries the DRAM
// traffic caused (zero when the line was already on chip).
func (h *Hierarchy) PrefetchFill(c int, lineAddr uint64, intoL1 bool) AccessOutcome {
	st := &h.stats[c]
	out := AccessOutcome{}
	if s := h.llc.find(lineAddr); s >= 0 {
		// On chip: the probe leaves LLC replacement state alone.
		h.coreValid[s] |= coreBit(c)
	} else {
		r := h.llc.FillMiss(lineAddr, h.masks[c], false, true)
		out.DRAMReadBytes += h.cfg.LineBytes
		st.DRAMReadBytes += uint64(h.cfg.LineBytes)
		st.LLCPrefetchFills++
		h.handleLLCEviction(c, r.Evicted, &out, st)
	}
	r := h.l2[c].Fill(lineAddr, h.l2Full, false, true)
	if r.Evicted.Valid && r.Evicted.Dirty {
		h.sinkWriteback(r.Evicted.LineAddr, &out, st)
	}
	if intoL1 {
		r := h.l1d[c].Fill(lineAddr, h.l1Full, false, true)
		if r.Evicted.Valid && r.Evicted.Dirty {
			if !h.l2[c].MarkDirty(r.Evicted.LineAddr) {
				h.sinkWriteback(r.Evicted.LineAddr, &out, st)
			}
		}
	}
	return out
}

// CheckInclusion verifies the inclusive-LLC invariant: every valid line
// in any L1 or L2 must be present in the LLC, and that LLC line's
// core-valid bits must name the holding core (eviction snoops only the
// named cores). It returns an error naming the first violation; tests
// and the property suite call this. For a non-inclusive hierarchy the
// invariant does not hold and the check is a no-op.
func (h *Hierarchy) CheckInclusion() error {
	if h.cfg.NonInclusiveLLC {
		return nil
	}
	for c := 0; c < h.cfg.Cores; c++ {
		for _, pc := range []*Cache{h.l1i[c], h.l1d[c], h.l2[c]} {
			for si := 0; si < pc.numSets; si++ {
				for vm := pc.valid[si]; vm != 0; vm &= vm - 1 {
					addr := pc.tags[si*pc.assoc+bits.TrailingZeros32(vm)]
					s := h.llc.find(addr)
					if s < 0 {
						return fmt.Errorf("inclusion violated: %s holds line %#x absent from LLC",
							pc.cfg.Name, addr)
					}
					if h.coreValid[s]&coreBit(c) == 0 {
						return fmt.Errorf("core-valid bits violated: %s holds line %#x but LLC slot %d lacks core %d's bit",
							pc.cfg.Name, addr, s, c)
					}
				}
			}
		}
	}
	return nil
}

// FlushAll empties every cache (between experiment runs only).
func (h *Hierarchy) FlushAll() {
	h.llc.FlushAll()
	clear(h.coreValid)
	for c := 0; c < h.cfg.Cores; c++ {
		h.l1i[c].FlushAll()
		h.l1d[c].FlushAll()
		h.l2[c].FlushAll()
	}
}
