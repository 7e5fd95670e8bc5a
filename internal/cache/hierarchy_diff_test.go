package cache

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rng"
)

// This file keeps the hierarchy as it was before core-valid bits, built
// from the reference refCache: every LLC eviction snoops L1I, L1D and
// L2 of every core, and a prefetch refill probes the LLC and then fills
// it with the presence-checking Fill. Randomized multi-core streams
// replay through it and the real Hierarchy, which must agree outcome by
// outcome — so snooping only the cores an LLC line's core-valid bits
// name, including the folded bits above 16 cores, is exact.

type refHierarchy struct {
	cfg            HierarchyConfig
	l1i, l1d, l2   []*refCache
	llc            *refCache
	masks          []WayMask
	stats          []CoreStats
	l1Full, l2Full WayMask
}

func newRefHierarchy(cfg HierarchyConfig) *refHierarchy {
	h := &refHierarchy{
		cfg:    cfg,
		llc:    newRefCache(cfg.LLC),
		masks:  make([]WayMask, cfg.Cores),
		stats:  make([]CoreStats, cfg.Cores),
		l1Full: FullMask(cfg.L1D.Assoc),
		l2Full: FullMask(cfg.L2.Assoc),
	}
	for c := 0; c < cfg.Cores; c++ {
		l1i, l1d, l2 := cfg.L1I, cfg.L1D, cfg.L2
		l1i.Name = fmt.Sprintf("L1I.%d", c)
		l1d.Name = fmt.Sprintf("L1D.%d", c)
		l2.Name = fmt.Sprintf("L2.%d", c)
		h.l1i = append(h.l1i, newRefCache(l1i))
		h.l1d = append(h.l1d, newRefCache(l1d))
		h.l2 = append(h.l2, newRefCache(l2))
		h.masks[c] = FullMask(cfg.LLC.Assoc)
	}
	return h
}

func (c *refCache) FlushAll() { clear(c.lines) }

func (h *refHierarchy) Access(c int, lineAddr uint64, write, instr bool) AccessOutcome {
	st := &h.stats[c]
	var l1 *refCache
	if instr {
		l1 = h.l1i[c]
		st.L1IAccesses++
	} else {
		l1 = h.l1d[c]
		st.L1DAccesses++
	}
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
	if r := h.l2[c].Lookup(lineAddr, false); r.Hit {
		out.Level = LevelL2
		out.HitPrefetched = r.WasPrefetched
		h.fillL1(c, l1, lineAddr, write, &out)
		return out
	}
	st.L2Misses++
	st.LLCAccesses++
	llcRes := h.llc.Access(lineAddr, false, h.masks[c])
	if llcRes.Hit {
		out.Level = LevelLLC
		out.HitPrefetched = llcRes.WasPrefetched
	} else {
		st.LLCMisses++
		out.Level = LevelMem
		out.DRAMReadBytes += h.cfg.LineBytes
		st.DRAMReadBytes += uint64(h.cfg.LineBytes)
		h.handleLLCEviction(llcRes.Evicted, &out, st)
	}
	r := h.l2[c].Fill(lineAddr, h.l2Full, false, false)
	if r.Evicted.Valid && r.Evicted.Dirty {
		h.sinkWriteback(r.Evicted.LineAddr, &out, st)
	}
	h.fillL1(c, l1, lineAddr, write, &out)
	return out
}

func (h *refHierarchy) fillL1(c int, l1 *refCache, lineAddr uint64, write bool, out *AccessOutcome) {
	r := l1.Fill(lineAddr, h.l1Full, write, false)
	if r.Evicted.Valid && r.Evicted.Dirty && !h.l2[c].MarkDirty(r.Evicted.LineAddr) {
		h.sinkWriteback(r.Evicted.LineAddr, out, &h.stats[c])
	}
}

func (h *refHierarchy) sinkWriteback(lineAddr uint64, out *AccessOutcome, st *CoreStats) {
	if h.llc.MarkDirty(lineAddr) {
		return
	}
	out.DRAMWriteBytes += h.cfg.LineBytes
	st.DRAMWriteBytes += uint64(h.cfg.LineBytes)
}

func (h *refHierarchy) handleLLCEviction(ev Eviction, out *AccessOutcome, st *CoreStats) {
	if !ev.Valid {
		return
	}
	dirty := ev.Dirty
	if !h.cfg.NonInclusiveLLC {
		for c := 0; c < h.cfg.Cores; c++ {
			for _, pc := range []*refCache{h.l1i[c], h.l1d[c], h.l2[c]} {
				if found, d := pc.Invalidate(ev.LineAddr); found {
					h.stats[c].BackInvalidations++
					dirty = dirty || d
				}
			}
		}
	}
	if dirty {
		out.DRAMWriteBytes += h.cfg.LineBytes
		st.DRAMWriteBytes += uint64(h.cfg.LineBytes)
	}
}

func (h *refHierarchy) PrefetchFill(c int, lineAddr uint64, intoL1 bool) AccessOutcome {
	st := &h.stats[c]
	out := AccessOutcome{}
	if !h.llc.Probe(lineAddr) {
		r := h.llc.Fill(lineAddr, h.masks[c], false, true)
		out.DRAMReadBytes += h.cfg.LineBytes
		st.DRAMReadBytes += uint64(h.cfg.LineBytes)
		st.LLCPrefetchFills++
		h.handleLLCEviction(r.Evicted, &out, st)
	}
	r := h.l2[c].Fill(lineAddr, h.l2Full, false, true)
	if r.Evicted.Valid && r.Evicted.Dirty {
		h.sinkWriteback(r.Evicted.LineAddr, &out, st)
	}
	if intoL1 {
		r := h.l1d[c].Fill(lineAddr, h.l1Full, false, true)
		if r.Evicted.Valid && r.Evicted.Dirty && !h.l2[c].MarkDirty(r.Evicted.LineAddr) {
			h.sinkWriteback(r.Evicted.LineAddr, &out, st)
		}
	}
	return out
}

func (h *refHierarchy) FlushAll() {
	h.llc.FlushAll()
	for c := 0; c < h.cfg.Cores; c++ {
		h.l1i[c].FlushAll()
		h.l1d[c].FlushAll()
		h.l2[c].FlushAll()
	}
}

// diffHierarchyConfig is an eviction-heavy geometry: 1 KB 2-way L1s,
// 2 KB 4-way L2s and a 16 KB 8-way hashed LLC, so at 12 and 20 cores the
// private caches together hold several times the LLC.
func diffHierarchyConfig(cores int, nonInclusive bool) HierarchyConfig {
	return HierarchyConfig{
		Cores:           cores,
		LineBytes:       64,
		L1I:             Config{Name: "L1I", SizeBytes: 1 << 10, Assoc: 2, LineBytes: 64},
		L1D:             Config{Name: "L1D", SizeBytes: 1 << 10, Assoc: 2, LineBytes: 64},
		L2:              Config{Name: "L2", SizeBytes: 2 << 10, Assoc: 4, LineBytes: 64},
		LLC:             Config{Name: "LLC", SizeBytes: 16 << 10, Assoc: 8, LineBytes: 64, HashIndex: true},
		NonInclusiveLLC: nonInclusive,
	}
}

// TestHierarchyDifferentialVsReference replays randomized multi-core
// streams — data and instruction reads and writes, prefetches into L1
// and into L2, way-mask repartitions and whole-hierarchy flushes —
// through the Hierarchy and the snoop-every-core reference, requiring
// identical outcomes at every step and identical per-core and per-cache
// counters at the end. 20 cores exercise the folded core-valid bits.
func TestHierarchyDifferentialVsReference(t *testing.T) {
	for _, nonIncl := range []bool{false, true} {
		for _, cores := range []int{1, 4, 12, 20} {
			name := fmt.Sprintf("inclusive/%dcores", cores)
			if nonIncl {
				name = fmt.Sprintf("noninclusive/%dcores", cores)
			}
			t.Run(name, func(t *testing.T) {
				runHierarchyDifferential(t, diffHierarchyConfig(cores, nonIncl), "hierdiff/"+name)
			})
		}
	}
}

func runHierarchyDifferential(t *testing.T, cfg HierarchyConfig, seed string) {
	t.Helper()
	got, want := NewHierarchy(cfg), newRefHierarchy(cfg)
	r := rng.NewNamed(seed)
	assoc := cfg.LLC.Assoc

	// Half the references go to a region every core shares, so LLC lines
	// carry several core-valid bits; the rest to a private region per
	// core. Together they cover several times the LLC.
	const sharedLines, privateLines = 512, 192
	addr := func(c int) uint64 {
		if r.Bool(0.5) {
			return 1<<20 + r.Uint64n(sharedLines)
		}
		return uint64(c+2)<<20 + r.Uint64n(privateLines)
	}

	const ops = 40000
	for i := 0; i < ops; i++ {
		c := r.Intn(cfg.Cores)
		switch op := r.Intn(1000); {
		case op < 2: // flush between "runs"
			got.FlushAll()
			want.FlushAll()
		case op < 12: // repartition: any non-empty mask within the LLC
			m := WayMask(1 + r.Uint64n(uint64(FullMask(assoc))))
			got.SetWayMask(c, m)
			want.masks[c] = m
		case op < 250: // hardware prefetch into L1 or L2
			a, intoL1 := addr(c), r.Bool(0.5)
			g, w := got.PrefetchFill(c, a, intoL1), want.PrefetchFill(c, a, intoL1)
			if g != w {
				t.Fatalf("op %d PrefetchFill(core %d, %#x, intoL1=%v): got %+v want %+v", i, c, a, intoL1, g, w)
			}
		default: // demand access
			a, write, instr := addr(c), r.Bool(0.3), r.Bool(0.15)
			if instr {
				write = false
			}
			g, w := got.Access(c, a, write, instr), want.Access(c, a, write, instr)
			if g != w {
				t.Fatalf("op %d Access(core %d, %#x, write=%v, instr=%v): got %+v want %+v", i, c, a, write, instr, g, w)
			}
		}
		if i%4000 == 0 {
			if err := got.CheckInclusion(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}

	if err := got.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cfg.Cores; c++ {
		if g, w := got.CoreStats(c), want.stats[c]; g != w {
			t.Fatalf("core %d stats diverged:\ngot  %+v\nwant %+v", c, g, w)
		}
		pairs := []struct {
			got  *Cache
			want *refCache
		}{{got.L1I(c), want.l1i[c]}, {got.L1D(c), want.l1d[c]}, {got.L2(c), want.l2[c]}}
		for _, p := range pairs {
			if g, w := p.got.Stats(), p.want.stats; g != w {
				t.Fatalf("%s stats diverged:\ngot  %+v\nwant %+v", p.got.Config().Name, g, w)
			}
		}
	}
	if g, w := got.LLC().Stats(), want.llc.stats; g != w {
		t.Fatalf("LLC stats diverged:\ngot  %+v\nwant %+v", g, w)
	}
	if got.CoreStats(0).BackInvalidations == 0 && !cfg.NonInclusiveLLC {
		t.Fatal("stream never back-invalidated a private line: the test exercises nothing")
	}
}

// TestCheckInclusionSeesCoreValidBits clears the core-valid bits of an
// LLC line a private cache holds; CheckInclusion must report it, since
// an eviction would then skip the holding core.
func TestCheckInclusionSeesCoreValidBits(t *testing.T) {
	h := testHierarchy()
	h.Access(1, 42, false, false)
	if err := h.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
	h.coreValid[h.llc.find(42)] = coreBit(0)
	err := h.CheckInclusion()
	if err == nil || !strings.Contains(err.Error(), "lacks core 1's bit") {
		t.Fatalf("CheckInclusion = %v, want a missing core-valid bit for core 1", err)
	}
}
