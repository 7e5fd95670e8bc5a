// Package partition implements the paper's LLC management policies as
// a pluggable layer: a Policy interface with a package-level registry
// (shared, fair, biased, explicit, dynamic, utility ship registered),
// the shared online decision loop every monitoring policy runs under,
// the §5.2 exhaustive biased search, and the §6 dynamic controller
// (phase detection, Algorithm 6.1, and way reallocation, Algorithm
// 6.2). Every layer — scenario runs, fleet oracles, experiment drivers,
// the pair CLI — prices a policy on a job mix through one Plan, so
// adding a policy is one file in this package plus a Register call —
// no run-layer edits.
package partition

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/workload"
)

// slowdownTieEps treats allocations within this fraction of the minimum
// foreground degradation as ties, broken by background throughput —
// the paper's "among allocations with minimum foreground performance
// degradation, select the one that maximizes background performance".
// The tolerance is small: the paper's criterion is the strict minimum,
// and a loose tolerance would make the static baseline unrealistically
// background-friendly (hiding the gains Figures 9/13 report).
const slowdownTieEps = 0.002

// PairPlan prices pol on the §5 pair: fg on cores 0-1 as the latency
// job beside bg looping on cores 2-3 (sched.PairSpec's placement and
// seeds), on the given platform.
func PairPlan(pol Policy, cfg machine.Config, scale float64, fg, bg *workload.Profile) (*Plan, error) {
	pair := sched.PairSpec{Fg: fg, Bg: bg, Mode: sched.BackgroundLoop}
	return NewPlan(pol, Mix{Spec: pair.Mix(cfg), Latency: []bool{true, false}}, cfg, scale)
}

// SearchSpecs lists every run the exhaustive biased search for a pair
// needs on the given platform — the foreground-alone baseline plus each
// uneven split, all on that platform — so experiment drivers can batch
// the searches of many pairs up front.
func SearchSpecs(cfg machine.Config, fg, bg *workload.Profile) []sched.Spec {
	plan, err := PairPlan(biasedPolicy{}, cfg, 0, fg, bg)
	if err != nil {
		panic(err.Error()) // the pair shape has the one latency job a search needs
	}
	return append([]sched.Spec{sched.AloneHalfSpec(fg).Mix(cfg)}, plan.Specs()...)
}

// Candidate is one allocation's measured (or, on the fast tier,
// predicted) outcome in a biased search; a Searcher's Pick selects
// among them, through PickBiased or PickForForeground for the
// registered biased policy.
type Candidate struct {
	FgWays       int
	FgSlowdown   float64 // foreground time / foreground-alone time
	BgThroughput float64 // summed background iterations
}

// PickBiased returns the index of the winning candidate under the
// §5.2 criterion: among allocations within slowdownTieEps of the
// minimum foreground degradation, the one that maximizes background
// throughput.
func PickBiased(cands []Candidate) int {
	if len(cands) == 0 {
		panic("partition: PickBiased with no candidates")
	}
	minSlow := cands[0].FgSlowdown
	for _, c := range cands[1:] {
		if c.FgSlowdown < minSlow {
			minSlow = c.FgSlowdown
		}
	}
	best := -1
	for i, c := range cands {
		if c.FgSlowdown > minSlow*(1+slowdownTieEps) {
			continue
		}
		if best < 0 || c.BgThroughput > cands[best].BgThroughput {
			best = i
		}
	}
	return best
}

// PickForForeground returns the index of the winning candidate under
// the Figure 13 criterion: minimum foreground degradation with ties
// broken toward the larger (more protective) foreground share.
// Candidates must be ordered by ascending FgWays.
func PickForForeground(cands []Candidate) int {
	if len(cands) == 0 {
		panic("partition: PickForForeground with no candidates")
	}
	best := -1
	var bestSlow float64
	for i := len(cands) - 1; i >= 0; i-- { // larger fg shares win ties
		if best < 0 || cands[i].FgSlowdown < bestSlow*(1-slowdownTieEps) {
			best = i
			bestSlow = cands[i].FgSlowdown
		}
	}
	return best
}

// SplitWays divides assoc ways into n contiguous disjoint shares, the
// generalized fair policy: every job gets assoc/n ways, the earliest
// jobs absorbing the remainder. The returned [first, lim) ranges cover
// the cache.
func SplitWays(assoc, n int) [][2]int {
	if n < 1 || n > assoc {
		panic(fmt.Sprintf("partition: cannot split %d ways %d ways", assoc, n))
	}
	out := make([][2]int, n)
	base, rem := assoc/n, assoc%n
	first := 0
	for i := range out {
		w := base
		if i < rem {
			w++
		}
		out[i] = [2]int{first, first + w}
		first += w
	}
	return out
}
