// Package prefetch models the four hardware prefetchers of the Sandy
// Bridge platform (paper §3.3):
//
//  1. DCU IP-prefetcher — per-PC stride detection, prefetches into L1D.
//  2. DCU streamer — detects ascending accesses, prefetches the next
//     line into L1D.
//  3. MLC spatial prefetcher — completes the 128-byte adjacent-line pair
//     in the L2 when successive lines are touched.
//  4. MLC streamer — tracks multi-line streams with direction, runs
//     ahead of the demand stream into the L2.
//
// Each prefetcher can be enabled or disabled independently, mirroring
// the machine-state-register bits the paper toggles for Figure 3.
package prefetch

// Config selects which prefetchers are active for a core.
type Config struct {
	DCUIP       bool
	DCUStreamer bool
	MLCSpatial  bool
	MLCStreamer bool
}

// AllOn returns the default configuration with all four prefetchers
// enabled (the shipping configuration of the platform).
func AllOn() Config {
	return Config{DCUIP: true, DCUStreamer: true, MLCSpatial: true, MLCStreamer: true}
}

// AllOff returns the configuration with every prefetcher disabled.
func AllOff() Config { return Config{} }

// Request is a prefetch candidate produced by observing demand traffic.
type Request struct {
	LineAddr uint64
	IntoL1   bool // DCU prefetchers target L1D; MLC prefetchers target L2
}

// Stats counts prefetcher activity for one core.
type Stats struct {
	IssuedDCUIP       uint64
	IssuedDCUStreamer uint64
	IssuedMLCSpatial  uint64
	IssuedMLCStreamer uint64
}

// Issued returns the total requests issued by all four prefetchers.
func (s Stats) Issued() uint64 {
	return s.IssuedDCUIP + s.IssuedDCUStreamer + s.IssuedMLCSpatial + s.IssuedMLCStreamer
}

const (
	ipTableSize     = 64
	streamTableSize = 16
	mlcAhead        = 2 // MLC streamer run-ahead distance in lines
)

type ipEntry struct {
	pc       uint64
	lastLine uint64
	stride   int64
	conf     int8
	valid    bool
}

// noStream is the last line of an empty stream-table entry. Line
// addresses are byte addresses shifted right by log2 of the line size,
// so no line is within two lines of it and the match test needs no
// validity check.
const noStream = uint64(1) << 63

// streamTable is a small fully-associative stream table stored
// structure-of-arrays, so the match scan walks one contiguous array of
// last-touched lines.
type streamTable struct {
	last  [streamTableSize]uint64 // last touched line; noStream when empty
	dir   [streamTableSize]int8   // +1 ascending, -1 descending
	count [streamTableSize]int8
	clock int // round-robin allocation cursor
}

func newStreamTable() streamTable {
	var t streamTable
	for i := range t.last {
		t.last[i] = noStream
	}
	return t
}

// streamKind selects the training rule: the DCU streamer (per §3.3)
// triggers on multiple reads to a single cache line — so re-references
// train it and it speculatively fetches the following line, which is
// pure pollution for scattered reuse-heavy heaps (the mechanism behind
// lusearch's degradation in Figure 3). The MLC streamer requires actual
// line-to-line movement.
type streamKind int

const (
	dcuStream streamKind = iota
	mlcStream
)

// Unit is the per-core prefetch engine. It is not safe for concurrent
// use; the simulator is single-threaded.
type Unit struct {
	cfg   Config
	stats Stats

	ip [ipTableSize]ipEntry

	dcuStreams streamTable
	mlcStreams streamTable
	mlcLast    uint64
	mlcHasLast bool

	scratch []Request
}

// NewUnit builds a prefetch engine with the given configuration.
func NewUnit(cfg Config) *Unit {
	return &Unit{
		cfg:        cfg,
		dcuStreams: newStreamTable(),
		mlcStreams: newStreamTable(),
		scratch:    make([]Request, 0, 4),
	}
}

// Config returns the active configuration.
func (u *Unit) Config() Config { return u.cfg }

// Stats returns a copy of the issue counters.
func (u *Unit) Stats() Stats { return u.stats }

// ObserveL1D digests one demand access to the L1 data cache and returns
// prefetch candidates. pc identifies the issuing instruction (the
// workload generator supplies a stable pseudo-PC per access stream). The
// returned slice is valid until the next Observe call.
func (u *Unit) ObserveL1D(pc, lineAddr uint64) []Request {
	u.scratch = u.scratch[:0]
	if u.cfg.DCUIP {
		u.observeIP(pc, lineAddr)
	}
	if u.cfg.DCUStreamer {
		u.observeStream(&u.dcuStreams, lineAddr, 1, true, &u.stats.IssuedDCUStreamer, dcuStream)
	}
	return u.scratch
}

// ObserveL2 digests one access that reached the L2 (an L1 miss) and
// returns prefetch candidates targeting the L2.
func (u *Unit) ObserveL2(lineAddr uint64) []Request {
	u.scratch = u.scratch[:0]
	if u.cfg.MLCSpatial {
		u.observeSpatial(lineAddr)
	}
	if u.cfg.MLCStreamer {
		u.observeStream(&u.mlcStreams, lineAddr, mlcAhead, false, &u.stats.IssuedMLCStreamer, mlcStream)
	}
	return u.scratch
}

// observeIP implements the per-PC stride predictor.
func (u *Unit) observeIP(pc, lineAddr uint64) {
	e := &u.ip[pc%ipTableSize]
	if !e.valid || e.pc != pc {
		*e = ipEntry{pc: pc, lastLine: lineAddr, valid: true}
		return
	}
	stride := int64(lineAddr) - int64(e.lastLine)
	if stride == e.stride && stride != 0 {
		if e.conf < 3 {
			e.conf++
		}
	} else {
		e.stride = stride
		e.conf = 0
	}
	e.lastLine = lineAddr
	if e.conf >= 2 && e.stride != 0 && abs64(e.stride) <= 8 {
		u.stats.IssuedDCUIP++
		u.scratch = append(u.scratch, Request{
			LineAddr: uint64(int64(lineAddr) + e.stride),
			IntoL1:   true,
		})
	}
}

// observeStream implements a direction-tracking next-line streamer over
// a small fully-associative stream table.
func (u *Unit) observeStream(t *streamTable, lineAddr uint64, ahead int64, intoL1 bool, issued *uint64, kind streamKind) {
	// Find the first stream this access extends: within 2 lines of the
	// last touched line, in either direction (one unsigned compare).
	for i := range t.last {
		delta := lineAddr - t.last[i]
		if delta+2 > 4 {
			continue
		}
		if delta == 0 {
			if kind == dcuStream {
				// Multiple reads to a single line trigger the DCU
				// streamer: from the second read on, it speculatively
				// fetches the following lines.
				if t.count[i] < 4 {
					t.count[i]++
				}
				dir := int64(t.dir[i])
				*issued++
				u.scratch = append(u.scratch, Request{
					LineAddr: uint64(int64(lineAddr) + dir),
					IntoL1:   intoL1,
				})
				if t.count[i] >= 2 {
					*issued++
					u.scratch = append(u.scratch, Request{
						LineAddr: uint64(int64(lineAddr) + 2*dir),
						IntoL1:   intoL1,
					})
				}
			}
			return
		}
		dir := int8(1)
		if int64(delta) < 0 {
			dir = -1
		}
		if t.dir[i] == dir {
			if t.count[i] < 4 {
				t.count[i]++
			}
		} else {
			t.dir[i] = dir
			t.count[i] = 1
		}
		t.last[i] = lineAddr
		if t.count[i] >= 2 {
			for k := int64(1); k <= ahead; k++ {
				*issued++
				u.scratch = append(u.scratch, Request{
					LineAddr: uint64(int64(lineAddr) + int64(dir)*k),
					IntoL1:   intoL1,
				})
			}
		}
		return
	}
	// Allocate a new stream, round-robin.
	t.clock = (t.clock + 1) % streamTableSize
	t.last[t.clock] = lineAddr
	t.dir[t.clock] = 1
	t.count[t.clock] = 0
}

// observeSpatial implements the adjacent-line (128-byte pair) prefetcher:
// two successive L2 accesses to consecutive lines trigger a fetch of the
// pair-completing line.
func (u *Unit) observeSpatial(lineAddr uint64) {
	if u.mlcHasLast {
		delta := int64(lineAddr) - int64(u.mlcLast)
		if delta == 1 || delta == -1 {
			buddy := lineAddr ^ 1 // the other line of the 128-byte pair
			u.stats.IssuedMLCSpatial++
			u.scratch = append(u.scratch, Request{LineAddr: buddy, IntoL1: false})
		}
	}
	u.mlcLast = lineAddr
	u.mlcHasLast = true
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
