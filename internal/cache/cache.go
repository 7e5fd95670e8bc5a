// Package cache implements the simulated memory hierarchy of the paper's
// Sandy Bridge prototype: write-back set-associative caches with bit-PLRU
// replacement, hashed last-level-cache indexing, way-based partitioning
// masks that restrict replacement only, and an inclusive LLC that
// back-invalidates private caches on eviction.
package cache

import (
	"fmt"
	"math/bits"
)

// Replacement selects the victim-choice policy of a cache array.
type Replacement int

// Replacement policies. The platform uses bit-PLRU; TrueLRU and Random
// exist for the ablation study on how replacement shapes the smooth
// miss curves the paper observes (§3.2).
const (
	ReplacePLRU   Replacement = iota // bit-PLRU (default; matches the prototype)
	ReplaceLRU                       // true least-recently-used
	ReplaceRandom                    // uniform random among masked ways
)

// String names the policy.
func (r Replacement) String() string {
	switch r {
	case ReplacePLRU:
		return "plru"
	case ReplaceLRU:
		return "lru"
	case ReplaceRandom:
		return "random"
	default:
		return fmt.Sprintf("Replacement(%d)", int(r))
	}
}

// Config describes a single cache array.
type Config struct {
	Name        string // for error messages and dumps
	SizeBytes   int    // total capacity
	Assoc       int    // ways per set
	LineBytes   int    // line size (power of two)
	HashIndex   bool   // hash the set index (models the randomized LLC index)
	Replacement Replacement
}

// Stats counts events observed by one cache array. Demand and prefetch
// traffic are accounted separately so prefetcher efficacy is measurable.
type Stats struct {
	Accesses     uint64 // demand lookups
	Hits         uint64 // demand hits
	Misses       uint64 // demand misses
	Evictions    uint64 // valid lines displaced (demand + prefetch fills)
	Writebacks   uint64 // dirty lines displaced
	PrefetchIns  uint64 // lines inserted by prefetch
	PrefetchHits uint64 // demand hits on lines inserted by prefetch
	Invalidates  uint64 // lines removed by back-invalidation
}

// Eviction describes a line displaced by a fill.
type Eviction struct {
	LineAddr uint64
	Dirty    bool
	Valid    bool
}

// Result reports the outcome of a demand access or a fill.
type Result struct {
	Hit bool
	// WasPrefetched reports a demand hit on a line a prefetcher brought
	// in (its first demand use).
	WasPrefetched bool
	Evicted       Eviction // Valid=false when the fill used an empty way
}

// invalidTag is the tag every invalid way holds. Line addresses are byte
// addresses shifted right by log2 of the line size, so none equals it and
// the tag scan needs no validity test. Callers must never pass it as a
// line address.
const invalidTag = ^uint64(0)

// Cache is one cache array. It is not safe for concurrent use; the
// simulator is single-threaded by design (determinism).
//
// Line state is stored structure-of-arrays: a packed tag array scanned
// contiguously on lookup, and per-set metadata bitmasks (one uint32 per
// set for each of valid/dirty/mru/prefetched) so replacement-state
// updates and victim picks are single mask operations instead of
// O(assoc) struct scans. True-LRU stamps live in their own array,
// allocated and touched only under ReplaceLRU — every other policy pays
// nothing for them.
type Cache struct {
	cfg       Config
	numSets   int
	assoc     int
	setMask   uint64
	lineShift uint
	fullSet   uint32 // mask of all assoc ways: (1<<assoc)-1

	tags       []uint64 // numSets*assoc, set-major; invalidTag where not valid
	valid      []uint32 // per-set valid-way bitmask
	dirty      []uint32 // per-set dirty-way bitmask
	mru        []uint32 // per-set bit-PLRU reference bits
	prefetched []uint32 // per-set prefetched-not-yet-hit bitmask
	stamps     []uint64 // numSets*assoc last-touch counters; nil unless ReplaceLRU

	stats    Stats
	clock    uint64 // touch counter for true LRU
	rndState uint64 // splitmix state for random replacement

	// slot is set*assoc+way of the line the last Access hit or the last
	// miss fill (Access, Fill or FillMiss) wrote; the hierarchy indexes
	// its LLC core-valid bits by it.
	slot int
}

// New builds a cache from the configuration. It panics on a geometry that
// does not divide evenly (catching config typos early).
func New(cfg Config) *Cache {
	if cfg.LineBytes <= 0 || cfg.LineBytes&(cfg.LineBytes-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineBytes))
	}
	if cfg.Assoc <= 0 || cfg.Assoc > 32 {
		panic(fmt.Sprintf("cache %s: associativity %d out of range", cfg.Name, cfg.Assoc))
	}
	linesTotal := cfg.SizeBytes / cfg.LineBytes
	if linesTotal*cfg.LineBytes != cfg.SizeBytes || linesTotal%cfg.Assoc != 0 {
		panic(fmt.Sprintf("cache %s: size %d not divisible into %d-byte lines × %d ways",
			cfg.Name, cfg.SizeBytes, cfg.LineBytes, cfg.Assoc))
	}
	numSets := linesTotal / cfg.Assoc
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: %d sets is not a power of two", cfg.Name, numSets))
	}
	shift := uint(0)
	for 1<<shift < cfg.LineBytes {
		shift++
	}
	c := &Cache{
		cfg:        cfg,
		numSets:    numSets,
		assoc:      cfg.Assoc,
		setMask:    uint64(numSets - 1),
		lineShift:  shift,
		fullSet:    uint32(1)<<uint(cfg.Assoc) - 1,
		tags:       make([]uint64, linesTotal),
		valid:      make([]uint32, numSets),
		dirty:      make([]uint32, numSets),
		mru:        make([]uint32, numSets),
		prefetched: make([]uint32, numSets),
		rndState:   hashName(cfg.Name),
	}
	if cfg.Replacement == ReplaceLRU {
		c.stamps = make([]uint64, linesTotal)
	}
	c.invalidateTags()
	return c
}

// invalidateTags writes invalidTag into every way.
func (c *Cache) invalidateTags() {
	for i := range c.tags {
		c.tags[i] = invalidTag
	}
}

// hashName seeds the random-replacement stream deterministically.
func hashName(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h | 1
}

// nextRand is a private splitmix64 step for random replacement.
func (c *Cache) nextRand() uint64 {
	c.rndState += 0x9e3779b97f4a7c15
	z := c.rndState
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// NumSets returns the number of sets.
func (c *Cache) NumSets() int { return c.numSets }

// LineShift returns log2(line size).
func (c *Cache) LineShift() uint { return c.lineShift }

// Stats returns a copy of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// setIndex maps a line address to a set. When HashIndex is set we use a
// multiplicative hash, modeling the randomized LLC-indexing function the
// paper credits with smoothing out working-set knees.
func (c *Cache) setIndex(lineAddr uint64) int {
	if c.cfg.HashIndex {
		return int(((lineAddr * 0x9e3779b97f4a7c15) >> 21) & c.setMask)
	}
	return int(lineAddr & c.setMask)
}

// touch updates replacement state after a reference to way w of set si.
// Bit-PLRU is two mask operations: set the reference bit; if every way's
// bit is now set, clear all but the most recent toucher's. True LRU
// stamps the way instead (stamps are non-nil only under that policy;
// the mru bits it skips are never read by the LRU victim pick).
func (c *Cache) touch(si, w int) {
	if c.stamps != nil {
		c.clock++
		c.stamps[si*c.assoc+w] = c.clock
		return
	}
	m := c.mru[si] | 1<<uint(w)
	if m == c.fullSet {
		m = 1 << uint(w)
	}
	c.mru[si] = m
}

// lookup returns the way of the set starting at tag index base that
// holds lineAddr, or -1. Invalid ways hold invalidTag, so the scan is
// pure tag compares over a contiguous run of assoc uint64s.
func (c *Cache) lookup(base int, lineAddr uint64) int {
	for w, tag := range c.tags[base : base+c.assoc] {
		if tag == lineAddr {
			return w
		}
	}
	return -1
}

// find returns the slot (set*assoc+way) holding lineAddr, or -1.
func (c *Cache) find(lineAddr uint64) int {
	base := c.setIndex(lineAddr) * c.assoc
	if w := c.lookup(base, lineAddr); w >= 0 {
		return base + w
	}
	return -1
}

// victim picks a fill victim within mask under the configured
// replacement policy, always preferring an invalid masked way. It
// panics on an empty mask (a policy bug).
func (c *Cache) victim(si int, mask WayMask) int {
	if mask == 0 {
		panic(fmt.Sprintf("cache %s: fill with empty way mask", c.cfg.Name))
	}
	m := uint32(mask) & c.fullSet
	if m == 0 {
		panic(fmt.Sprintf("cache %s: mask %s selects no way of %d", c.cfg.Name, mask, c.assoc))
	}
	if inv := m &^ c.valid[si]; inv != 0 {
		return bits.TrailingZeros32(inv)
	}
	switch c.cfg.Replacement {
	case ReplaceLRU:
		base := si * c.assoc
		best := bits.TrailingZeros32(m)
		bestStamp := c.stamps[base+best]
		for rem := m &^ (1 << uint(best)); rem != 0; rem &= rem - 1 {
			w := bits.TrailingZeros32(rem)
			if s := c.stamps[base+w]; s < bestStamp {
				best, bestStamp = w, s
			}
		}
		return best
	case ReplaceRandom:
		// The pick is drawn modulo the full mask's population (including
		// any bits at or above assoc) to preserve the historical random
		// stream; picks past the last in-set way fall back to the first.
		pick := int(c.nextRand() % uint64(mask.Count()))
		if pick >= bits.OnesCount32(m) {
			return bits.TrailingZeros32(m)
		}
		rem := m
		for ; pick > 0; pick-- {
			rem &= rem - 1
		}
		return bits.TrailingZeros32(rem)
	default: // bit-PLRU: first masked way with a clear reference bit.
		if cand := m &^ c.mru[si]; cand != 0 {
			return bits.TrailingZeros32(cand)
		}
		return bits.TrailingZeros32(m)
	}
}

// Access performs a demand lookup for lineAddr, allocating on miss using
// the given way mask. write marks the line dirty on hit or fill
// (write-back, write-allocate). The returned Result carries the displaced
// line, if any, so the caller can cascade writebacks and inclusion
// invalidations.
func (c *Cache) Access(lineAddr uint64, write bool, mask WayMask) Result {
	c.stats.Accesses++
	si := c.setIndex(lineAddr)
	base := si * c.assoc
	if w := c.lookup(base, lineAddr); w >= 0 {
		c.slot = base + w
		c.stats.Hits++
		bit := uint32(1) << uint(w)
		wasPrefetched := c.prefetched[si]&bit != 0
		if wasPrefetched {
			c.stats.PrefetchHits++
			c.prefetched[si] &^= bit
		}
		if write {
			c.dirty[si] |= bit
		}
		c.touch(si, w)
		return Result{Hit: true, WasPrefetched: wasPrefetched}
	}
	c.stats.Misses++
	ev := c.fill(si, lineAddr, mask, write, false)
	return Result{Hit: false, Evicted: ev}
}

// Lookup performs a demand lookup WITHOUT allocating on a miss: a hit
// refreshes replacement state (and dirtiness for writes) exactly like
// Access; a miss only counts. The hierarchy uses Lookup for the private
// levels so that every allocation flows through Fill, whose returned
// victim the caller must handle — an allocate-on-miss Access would
// silently drop the victim's writeback.
func (c *Cache) Lookup(lineAddr uint64, write bool) Result {
	c.stats.Accesses++
	si := c.setIndex(lineAddr)
	if w := c.lookup(si*c.assoc, lineAddr); w >= 0 {
		c.stats.Hits++
		bit := uint32(1) << uint(w)
		wasPrefetched := c.prefetched[si]&bit != 0
		if wasPrefetched {
			c.stats.PrefetchHits++
			c.prefetched[si] &^= bit
		}
		if write {
			c.dirty[si] |= bit
		}
		c.touch(si, w)
		return Result{Hit: true, WasPrefetched: wasPrefetched}
	}
	c.stats.Misses++
	return Result{Hit: false}
}

// Probe reports whether lineAddr is present, without disturbing
// replacement state or statistics.
func (c *Cache) Probe(lineAddr uint64) bool {
	return c.find(lineAddr) >= 0
}

// Fill inserts lineAddr (e.g. on behalf of a prefetcher or an upper-level
// fill path) without counting a demand access. prefetch tags the line for
// prefetch-hit accounting.
func (c *Cache) Fill(lineAddr uint64, mask WayMask, dirty, prefetch bool) Result {
	si := c.setIndex(lineAddr)
	if w := c.lookup(si*c.assoc, lineAddr); w >= 0 {
		// Already present (races with demand path); just refresh.
		if dirty {
			c.dirty[si] |= 1 << uint(w)
		}
		c.touch(si, w)
		return Result{Hit: true}
	}
	ev := c.fill(si, lineAddr, mask, dirty, prefetch)
	return Result{Hit: false, Evicted: ev}
}

// FillMiss is Fill for callers that know lineAddr is absent — the
// demand-miss refill path, where the line just missed this cache and
// nothing since could have inserted it (LLC back-invalidation only
// removes lines), and the LLC prefetch refill after a missed probe.
// Skipping the presence scan saves a full set walk per such fill.
func (c *Cache) FillMiss(lineAddr uint64, mask WayMask, dirty, prefetch bool) Result {
	ev := c.fill(c.setIndex(lineAddr), lineAddr, mask, dirty, prefetch)
	return Result{Hit: false, Evicted: ev}
}

func (c *Cache) fill(si int, lineAddr uint64, mask WayMask, dirty, prefetch bool) Eviction {
	w := c.victim(si, mask)
	bit := uint32(1) << uint(w)
	var ev Eviction
	if c.valid[si]&bit != 0 {
		wasDirty := c.dirty[si]&bit != 0
		ev = Eviction{LineAddr: c.tags[si*c.assoc+w], Dirty: wasDirty, Valid: true}
		c.stats.Evictions++
		if wasDirty {
			c.stats.Writebacks++
		}
	}
	c.slot = si*c.assoc + w
	c.tags[c.slot] = lineAddr
	c.valid[si] |= bit
	if dirty {
		c.dirty[si] |= bit
	} else {
		c.dirty[si] &^= bit
	}
	if prefetch {
		c.prefetched[si] |= bit
		c.stats.PrefetchIns++
	} else {
		c.prefetched[si] &^= bit
	}
	c.touch(si, w)
	return ev
}

// MarkDirty sets the dirty bit of lineAddr if present, returning whether
// it was found. Used to sink writebacks from an upper level.
func (c *Cache) MarkDirty(lineAddr uint64) bool {
	si := c.setIndex(lineAddr)
	if w := c.lookup(si*c.assoc, lineAddr); w >= 0 {
		c.dirty[si] |= 1 << uint(w)
		return true
	}
	return false
}

// Invalidate removes lineAddr if present, reporting presence and
// dirtiness. Used for inclusive-LLC back-invalidation.
func (c *Cache) Invalidate(lineAddr uint64) (found, dirty bool) {
	si := c.setIndex(lineAddr)
	if w := c.lookup(si*c.assoc, lineAddr); w >= 0 {
		bit := uint32(1) << uint(w)
		dirty = c.dirty[si]&bit != 0
		c.tags[si*c.assoc+w] = invalidTag
		c.valid[si] &^= bit
		c.dirty[si] &^= bit
		c.mru[si] &^= bit
		c.prefetched[si] &^= bit
		if c.stamps != nil {
			c.stamps[si*c.assoc+w] = 0
		}
		c.stats.Invalidates++
		return true, dirty
	}
	return false, false
}

// OccupancyByWay returns, for each way index, the number of valid lines
// currently resident in that way across all sets. Experiments use this to
// visualize partition occupancy.
func (c *Cache) OccupancyByWay() []int {
	occ := make([]int, c.assoc)
	for si := 0; si < c.numSets; si++ {
		for vm := c.valid[si]; vm != 0; vm &= vm - 1 {
			occ[bits.TrailingZeros32(vm)]++
		}
	}
	return occ
}

// ValidLines returns the total number of valid lines.
func (c *Cache) ValidLines() int {
	n := 0
	for _, vm := range c.valid {
		n += bits.OnesCount32(vm)
	}
	return n
}

// FlushAll invalidates every line (used between independent experiment
// runs; the partitioning mechanism itself never flushes).
func (c *Cache) FlushAll() {
	clear(c.valid)
	clear(c.dirty)
	clear(c.mru)
	clear(c.prefetched)
	c.invalidateTags()
	if c.stamps != nil {
		clear(c.stamps)
	}
}
