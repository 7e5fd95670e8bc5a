// Package memory models the off-chip DRAM interface: a fixed service
// latency plus a shared-bandwidth queueing term. The paper's platform
// cannot partition memory bandwidth (§5.2, §8), so contention here is
// exactly the residual interference cache partitioning cannot remove —
// reproducing the worst-case slowdowns the paper traces to
// bandwidth-sensitive applications.
package memory

import "fmt"

// BusConfig describes a shared bandwidth resource (DRAM channels or the
// on-chip ring).
type BusConfig struct {
	Name              string
	PeakBytesPerCycle float64 // aggregate peak bandwidth
	Knee              float64 // utilization where queueing becomes visible
	MaxQueueFactor    float64 // cap on the latency inflation
}

// DRAMConfig bundles the timing of the memory interface.
type DRAMConfig struct {
	BaseLatencyCycles float64 // unloaded load-to-use latency
	Bus               BusConfig
}

// DefaultDRAM returns parameters resembling the paper's platform:
// dual-channel DDR3 (21 GB/s raw, ~70% achievable ≈ 4.5 B/cycle at the
// 3.4 GHz core clock) with ~180-cycle unloaded latency.
func DefaultDRAM() DRAMConfig {
	return DRAMConfig{
		BaseLatencyCycles: 180,
		Bus: BusConfig{
			Name:              "DRAM",
			PeakBytesPerCycle: 6.5,
			Knee:              0.55,
			MaxQueueFactor:    2.5,
		},
	}
}

// Bus tracks the aggregate demand placed on a shared bandwidth resource
// by a set of hardware threads. Each thread registers its current demand
// rate (bytes per cycle, averaged over its last epoch); utilization is
// the ratio of total demand to peak. The simulator is single-threaded,
// so Bus performs no locking.
type Bus struct {
	cfg   BusConfig
	rates []float64
	total float64

	// Bandwidth QoS (§8 of the paper proposes this as the missing
	// hardware): when groups are configured, each thread belongs to a
	// reservation group with a guaranteed share of the peak bandwidth,
	// and contention is computed within the group only.
	groupOf     []int     // per-thread group id, -1 = ungrouped
	groupShare  []float64 // per-group bandwidth share, sums to <= 1
	groupTotals []float64
	qos         bool
}

// NewBus builds a bus with capacity for nThreads demand registers.
func NewBus(cfg BusConfig, nThreads int) *Bus {
	if cfg.PeakBytesPerCycle <= 0 {
		panic(fmt.Sprintf("memory: bus %s has non-positive peak bandwidth", cfg.Name))
	}
	if cfg.MaxQueueFactor < 1 {
		cfg.MaxQueueFactor = 1
	}
	return &Bus{cfg: cfg, rates: make([]float64, nThreads)}
}

// SetRate registers thread tid's demand in bytes per cycle.
func (b *Bus) SetRate(tid int, bytesPerCycle float64) {
	if bytesPerCycle < 0 {
		bytesPerCycle = 0
	}
	delta := bytesPerCycle - b.rates[tid]
	b.total += delta
	b.rates[tid] = bytesPerCycle
	if b.qos {
		if g := b.groupOf[tid]; g >= 0 {
			b.groupTotals[g] += delta
		}
	}
}

// ConfigureQoS partitions the bus bandwidth into reservation groups:
// groupOf maps each thread to a group id (or -1), shares gives each
// group's guaranteed fraction of peak bandwidth. This models the
// memory-bandwidth QoS hardware the paper identifies as the missing
// piece for robust isolation (§8); it did not exist on the prototype.
func (b *Bus) ConfigureQoS(groupOf []int, shares []float64) {
	if len(groupOf) != len(b.rates) {
		panic(fmt.Sprintf("memory: bus %s QoS config covers %d threads, have %d",
			b.cfg.Name, len(groupOf), len(b.rates)))
	}
	var sum float64
	for _, s := range shares {
		if s <= 0 {
			panic("memory: non-positive QoS share")
		}
		sum += s
	}
	if sum > 1.0001 {
		panic(fmt.Sprintf("memory: QoS shares sum to %v > 1", sum))
	}
	b.groupOf = append([]int(nil), groupOf...)
	b.groupShare = append([]float64(nil), shares...)
	b.groupTotals = make([]float64, len(shares))
	b.qos = true
	for tid, r := range b.rates {
		if g := b.groupOf[tid]; g >= 0 {
			b.groupTotals[g] += r
		}
	}
}

// ClearRate removes thread tid's demand (thread finished or descheduled).
func (b *Bus) ClearRate(tid int) { b.SetRate(tid, 0) }

// Reset clears all demand registers.
func (b *Bus) Reset() {
	for i := range b.rates {
		b.rates[i] = 0
	}
	b.total = 0
	for i := range b.groupTotals {
		b.groupTotals[i] = 0
	}
}

// UtilizationFor returns the utilization governing thread tid: its QoS
// group's when groups are configured, the global one otherwise.
func (b *Bus) UtilizationFor(tid int) float64 {
	if !b.qos || b.groupOf[tid] < 0 {
		return b.Utilization()
	}
	g := b.groupOf[tid]
	u := b.groupTotals[g] / (b.cfg.PeakBytesPerCycle * b.groupShare[g])
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// Utilization returns total demand / peak, clamped to [0, 1].
func (b *Bus) Utilization() float64 {
	u := b.total / b.cfg.PeakBytesPerCycle
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// QueueFactor returns the latency inflation caused by contention: 1.0 up
// to the knee, then an M/M/1-like growth capped at MaxQueueFactor. The
// smooth shape (no cliff) matches the paper's observation that real
// hardware shows gradual degradation rather than sharp knees.
func (b *Bus) QueueFactor() float64 {
	return b.factorFor(b.Utilization())
}

// QueueFactorFor returns the latency inflation seen by thread tid. With
// QoS groups, contention is confined to the thread's own reservation:
// other groups' traffic cannot inflate its latency.
func (b *Bus) QueueFactorFor(tid int) float64 {
	if !b.qos {
		return b.QueueFactor()
	}
	g := b.groupOf[tid]
	if g < 0 {
		return b.QueueFactor()
	}
	u := b.groupTotals[g] / (b.cfg.PeakBytesPerCycle * b.groupShare[g])
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return b.factorFor(u)
}

func (b *Bus) factorFor(u float64) float64 {
	if u <= b.cfg.Knee {
		return 1.0
	}
	// Excess utilization drives an M/M/1-style 1/(1-u) term, renormalized
	// so the factor is continuous (=1) at the knee.
	const eps = 0.02
	denom := 1 - u
	if denom < eps {
		denom = eps
	}
	f := 1 + (u-b.cfg.Knee)/denom*1.5
	if f > b.cfg.MaxQueueFactor {
		f = b.cfg.MaxQueueFactor
	}
	return f
}

// DRAM computes effective memory latency under the current bus load.
type DRAM struct {
	cfg DRAMConfig
	bus *Bus
}

// NewDRAM builds the DRAM model with a demand register per thread.
func NewDRAM(cfg DRAMConfig, nThreads int) *DRAM {
	return &DRAM{cfg: cfg, bus: NewBus(cfg.Bus, nThreads)}
}

// Bus returns the underlying shared bus for demand registration.
func (d *DRAM) Bus() *Bus { return d.bus }

// Latency returns the effective per-access latency in cycles under the
// present contention level.
func (d *DRAM) Latency() float64 {
	return d.cfg.BaseLatencyCycles * d.bus.QueueFactor()
}

// LatencyFor returns the effective latency seen by thread tid,
// respecting bandwidth-QoS reservations when configured.
func (d *DRAM) LatencyFor(tid int) float64 {
	return d.cfg.BaseLatencyCycles * d.bus.QueueFactorFor(tid)
}

// BaseLatency returns the unloaded latency in cycles.
func (d *DRAM) BaseLatency() float64 { return d.cfg.BaseLatencyCycles }
