package prefetch

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/rng"
)

// This file keeps the prefetch unit as it was before the stream table
// went structure-of-arrays — an array of entry structs with a valid
// flag, scanned with a signed delta — as the executable specification,
// and replays randomized reference streams through it and the real
// Unit, requiring identical requests and counters after every call.

type refStreamEntry struct {
	lastLine uint64
	dir      int64 // +1 ascending, -1 descending
	count    int8
	valid    bool
}

type refUnit struct {
	cfg   Config
	stats Stats

	ip [ipTableSize]ipEntry

	dcuStreams [streamTableSize]refStreamEntry
	dcuClock   int

	mlcStreams [streamTableSize]refStreamEntry
	mlcClock   int
	mlcLast    uint64
	mlcHasLast bool

	scratch []Request
}

func (u *refUnit) ObserveL1D(pc, lineAddr uint64) []Request {
	u.scratch = u.scratch[:0]
	if u.cfg.DCUIP {
		u.observeIP(pc, lineAddr)
	}
	if u.cfg.DCUStreamer {
		u.observeStream(&u.dcuStreams, &u.dcuClock, lineAddr, 1, true, &u.stats.IssuedDCUStreamer, dcuStream)
	}
	return u.scratch
}

func (u *refUnit) ObserveL2(lineAddr uint64) []Request {
	u.scratch = u.scratch[:0]
	if u.cfg.MLCSpatial {
		u.observeSpatial(lineAddr)
	}
	if u.cfg.MLCStreamer {
		u.observeStream(&u.mlcStreams, &u.mlcClock, lineAddr, mlcAhead, false, &u.stats.IssuedMLCStreamer, mlcStream)
	}
	return u.scratch
}

func (u *refUnit) observeIP(pc, lineAddr uint64) {
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

func (u *refUnit) observeStream(tbl *[streamTableSize]refStreamEntry, clock *int, lineAddr uint64, ahead int64, intoL1 bool, issued *uint64, kind streamKind) {
	for i := range tbl {
		e := &tbl[i]
		if !e.valid {
			continue
		}
		delta := int64(lineAddr) - int64(e.lastLine)
		if delta == 0 {
			if kind == dcuStream {
				if e.count < 4 {
					e.count++
				}
				*issued++
				u.scratch = append(u.scratch, Request{
					LineAddr: uint64(int64(lineAddr) + e.dir),
					IntoL1:   intoL1,
				})
				if e.count >= 2 {
					*issued++
					u.scratch = append(u.scratch, Request{
						LineAddr: uint64(int64(lineAddr) + 2*e.dir),
						IntoL1:   intoL1,
					})
				}
			}
			return
		}
		if delta >= -2 && delta <= 2 {
			dir := int64(1)
			if delta < 0 {
				dir = -1
			}
			if e.dir == dir {
				if e.count < 4 {
					e.count++
				}
			} else {
				e.dir = dir
				e.count = 1
			}
			e.lastLine = lineAddr
			if e.count >= 2 {
				for k := int64(1); k <= ahead; k++ {
					*issued++
					u.scratch = append(u.scratch, Request{
						LineAddr: uint64(int64(lineAddr) + dir*k),
						IntoL1:   intoL1,
					})
				}
			}
			return
		}
	}
	*clock = (*clock + 1) % streamTableSize
	tbl[*clock] = refStreamEntry{lastLine: lineAddr, dir: 1, count: 0, valid: true}
}

func (u *refUnit) observeSpatial(lineAddr uint64) {
	if u.mlcHasLast {
		delta := int64(lineAddr) - int64(u.mlcLast)
		if delta == 1 || delta == -1 {
			u.stats.IssuedMLCSpatial++
			u.scratch = append(u.scratch, Request{LineAddr: lineAddr ^ 1, IntoL1: false})
		}
	}
	u.mlcLast = lineAddr
	u.mlcHasLast = true
}

// TestObserveDifferentialVsReference drives both units with all four
// prefetchers on. The stream walks 24 cursors — more live streams than
// the 16-entry tables hold, so round-robin reuse keeps evicting — each
// repeating its line, stepping ±1 or ±2, flipping direction or jumping
// far away. At base 0 streams cross line 0, so run-ahead targets and
// deltas wrap.
func TestObserveDifferentialVsReference(t *testing.T) {
	for _, base := range []uint64{0, 1 << 30, 1 << 57} {
		t.Run(fmt.Sprintf("base%#x", base), func(t *testing.T) {
			runObserveDifferential(t, base)
		})
	}
}

func runObserveDifferential(t *testing.T, base uint64) {
	t.Helper()
	got := NewUnit(AllOn())
	want := &refUnit{cfg: AllOn()}
	r := rng.NewNamed(fmt.Sprintf("prefetch/diff/%#x", base))

	const cursors = 24
	pos := make([]uint64, cursors)
	dir := make([]int64, cursors)
	for i := range pos {
		pos[i] = base + uint64(i)*64
		dir[i] = 1
	}
	check := func(i int, call string, g, w []Request) {
		t.Helper()
		if !slices.Equal(g, w) {
			t.Fatalf("op %d %s: got %+v want %+v", i, call, g, w)
		}
		if gs, ws := got.Stats(), want.stats; gs != ws {
			t.Fatalf("op %d %s: stats got %+v want %+v", i, call, gs, ws)
		}
	}

	// A zigzag across base first: at base 0 it steps across the wrap
	// between line 0 and line 2^64-1, where direction must follow the
	// signed delta.
	for i, d := range []int64{2, 1, 0, -1, -2, -1, 0, 1, 2, 1, 0, -1, 0, 1} {
		line := base + uint64(d)
		check(i, fmt.Sprintf("ObserveL1D(1, %#x)", line), got.ObserveL1D(1, line), want.ObserveL1D(1, line))
		check(i, fmt.Sprintf("ObserveL2(%#x)", line), got.ObserveL2(line), want.ObserveL2(line))
	}

	const ops = 100000
	for i := 0; i < ops; i++ {
		k := r.Intn(cursors)
		switch op := r.Intn(100); {
		case op < 20: // repeat: re-read the same line
		case op < 30: // direction flip
			dir[k] = -dir[k]
			pos[k] += uint64(dir[k])
		case op < 35: // far jump: the cursor starts a new stream
			pos[k] = base + r.Uint64n(1<<20)
		default: // step one or two lines along the stream
			pos[k] += uint64(dir[k] * int64(1+r.Intn(2)))
		}
		line := pos[k]
		pc := uint64(k)
		if r.Bool(0.1) {
			pc = r.Uint64n(256) // PC aliasing in the IP table
		}
		check(i, fmt.Sprintf("ObserveL1D(%d, %#x)", pc, line), got.ObserveL1D(pc, line), want.ObserveL1D(pc, line))
		if r.Bool(0.6) { // the L1 missed: the access reaches the L2
			check(i, fmt.Sprintf("ObserveL2(%#x)", line), got.ObserveL2(line), want.ObserveL2(line))
		}
	}
	if got.Stats().IssuedDCUStreamer == 0 || got.Stats().IssuedMLCStreamer == 0 {
		t.Fatalf("streamers never issued: %+v", got.Stats())
	}
}

// TestObserveZeroAllocs pins the per-reference prefetch path at zero
// allocations: the request slice is the unit's reusable scratch.
func TestObserveZeroAllocs(t *testing.T) {
	u := NewUnit(AllOn())
	line := uint64(1 << 30)
	var i uint64
	allocs := testing.AllocsPerRun(2000, func() {
		i = i*2862933555777941757 + 3037000493
		line += i>>62 - 1 // steps of -1..+2 lines
		u.ObserveL1D(i&15, line)
		u.ObserveL2(line)
	})
	if allocs != 0 {
		t.Fatalf("ObserveL1D+ObserveL2 allocate %.1f objects per reference, want 0", allocs)
	}
}
