package partition

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/model"
	"repro/internal/sched"
)

// Mix is the job mix a plan prices: the runnable mix with every job at
// the full cache, plus what a policy decides from that the engine's
// job fields do not carry.
type Mix struct {
	Spec sched.MixSpec
	// Latency marks the latency-critical jobs (the pair shape's
	// foreground), one flag per job.
	Latency []bool
	// Declared holds each job's declared way range [first, lim), the
	// explicit policy's input; nil or a zero range means none.
	Declared [][2]int
}

// Plan is one partition policy priced on one mix: the single place the
// search / online / offline dispatch lives. Every layer that asks
// "policy P on this mix" — scenario runs, fleet oracles at either
// fidelity, the experiment drivers, the pair CLI —
// lists the plan's specs, runs them through the engine (batched with
// whatever else it needs), and harvests one Outcome:
//
//   - a Searcher sweeps every latency-vs-rest split and picks the
//     winner with its own rule;
//   - an online policy runs one episode with its decision loop
//     attached, keyed by RunKey so it memoizes and disk-caches;
//   - an offline policy runs the single static split its Decide picks.
type Plan struct {
	pol      Policy
	search   Searcher // non-nil for search policies
	online   bool
	mix      Mix
	assoc    int
	lat      int      // first latency job, -1 when none
	ranges   [][2]int // static way range per job ([0,0) = full cache)
	interval float64  // online sampling interval, simulated seconds
}

// NewPlan validates pol against the mix on the given platform and
// prices nothing yet. scale sizes an online policy's sampling interval
// (SamplingInterval of the mix's anchor job); plans that are only
// asked for their static Ranges may pass 0.
func NewPlan(pol Policy, mix Mix, cfg machine.Config, scale float64) (*Plan, error) {
	n := len(mix.Spec.Jobs)
	latency, declared := make([]bool, n), make([][2]int, n)
	copy(latency, mix.Latency)
	copy(declared, mix.Declared)
	mix.Latency, mix.Declared = latency, declared
	p := &Plan{pol: pol, mix: mix, assoc: cfg.Hier.LLC.Assoc, lat: -1, ranges: make([][2]int, n)}
	snap := &Snapshot{Assoc: p.assoc, Jobs: make([]JobView, n)}
	for i, j := range mix.Spec.Jobs {
		snap.Jobs[i] = JobView{App: j.App.Name, Latency: latency[i], Declared: declared[i]}
		if latency[i] && p.lat < 0 {
			p.lat = i
		}
	}
	if err := pol.CheckMix(snap); err != nil {
		return nil, err
	}
	switch s, _ := pol.(Searcher); {
	case s != nil:
		p.search = s
	case pol.Online():
		p.online = true
		p.interval = SamplingInterval(p.anchor().App, scale)
	default:
		masks := pol.Decide(snap)
		if err := ValidateMasks(p.assoc, n, masks); err != nil {
			return nil, err
		}
		for i, m := range masks {
			first, lim, ok := RangeOfMask(m)
			if !ok {
				return nil, fmt.Errorf("policy %s produced non-contiguous mask %s for job %d",
					pol.Name(), m, i)
			}
			p.ranges[i] = [2]int{first, lim}
		}
	}
	return p, nil
}

// anchor picks the job the sampling interval is derived from: the
// single latency job when there is one (the §6 convention), else the
// first terminating job (whose completion ends the window).
func (p *Plan) anchor() sched.MixJob {
	jobs := p.mix.Spec.Jobs
	n := 0
	for _, l := range p.mix.Latency {
		if l {
			n++
		}
	}
	if n == 1 {
		return jobs[p.lat]
	}
	for _, j := range jobs {
		if !j.Background {
			return j
		}
	}
	return jobs[0]
}

// Ranges returns each job's static way range: an offline policy's
// Decide split, the full cache ([0,0)) for search and online policies,
// which decide at run time.
func (p *Plan) Ranges() [][2]int { return p.ranges }

// AloneJob returns the job whose alone time Harvest reads — the latency
// job of a search, which normalizes its candidates by it — or -1 when
// Harvest reads none. Callers that do not run that baseline anyway add
// it only then.
func (p *Plan) AloneJob() int {
	if p.search == nil {
		return -1
	}
	return p.lat
}

// withRanges is the mix with the given per-job way ranges.
func (p *Plan) withRanges(ranges [][2]int) sched.MixSpec {
	spec := p.mix.Spec
	spec.Jobs = make([]sched.MixJob, len(ranges))
	for i, j := range p.mix.Spec.Jobs {
		j.WayFirst, j.WayLim = ranges[i][0], ranges[i][1]
		spec.Jobs[i] = j
	}
	return spec
}

// splitRanges is the canonical latency-vs-rest split (the ranges form
// of splitMasks): the latency job in ways [0, w), every other job in
// [w, assoc).
func (p *Plan) splitRanges(w int) [][2]int {
	out := make([][2]int, len(p.ranges))
	for i := range out {
		if i == p.lat {
			out[i] = [2]int{0, w}
		} else {
			out[i] = [2]int{w, p.assoc}
		}
	}
	return out
}

// Specs lists the simulations the plan needs, in the order Harvest
// reads them: the assoc-1 splits of a search (latency job w ways for
// w = 1..assoc-1), the one loop-attached episode of an online policy,
// or the one static split of an offline policy.
func (p *Plan) Specs() []sched.Spec {
	switch {
	case p.search != nil:
		specs := make([]sched.Spec, 0, p.assoc-1)
		for w := 1; w < p.assoc; w++ {
			specs = append(specs, p.withRanges(p.splitRanges(w)))
		}
		return specs
	case p.online:
		spec, _ := p.LoopSpec(nil)
		return []sched.Spec{spec}
	default:
		return []sched.Spec{p.withRanges(p.ranges)}
	}
}

// LoopSpec builds an online plan's episode: the full-cache mix with
// the policy's decision loop attached at the plan's sampling interval.
// With lp nil the spec is memoizable, keyed by RunKey; passing lp
// (receiving each attached run's live loop, for its MPKI/allocation
// time series) keeps the run unmemoized, since a cached result could
// not carry the series. ok is false for offline and search plans.
func (p *Plan) LoopSpec(lp **Loop) (spec sched.MixSpec, ok bool) {
	if !p.online {
		return sched.MixSpec{}, false
	}
	spec = p.withRanges(p.ranges)
	pol, interval, latency, declared := p.pol, p.interval, p.mix.Latency, p.mix.Declared
	spec.Setup = func(m *machine.Machine, jobs []*machine.Job) {
		ljs := make([]LoopJob, len(jobs))
		for i, j := range jobs {
			ljs[i] = LoopJob{Job: j, Latency: latency[i], Declared: declared[i]}
		}
		loop := AttachLoop(m, ljs, pol, interval)
		if lp != nil {
			*lp = loop
		}
	}
	if lp == nil {
		spec.PolicyKey = RunKey(pol, interval, latency)
	}
	return spec, true
}

// StaticSpec returns an offline plan's one runnable spec, the mix at
// its static ranges; ok is false for search and online plans, which
// need the engine to sweep or monitor.
func (p *Plan) StaticSpec() (spec sched.MixSpec, ok bool) {
	if p.search != nil || p.online {
		return sched.MixSpec{}, false
	}
	return p.withRanges(p.ranges), true
}

// Outcome is what a plan's runs measured.
type Outcome struct {
	// Main is the run the policy's choice produced: the search's pick,
	// the online episode, or the static split.
	Main *machine.Result
	// Ranges is each job's way range in Main ([0,0) = full cache; an
	// online episode starts every job at the full cache).
	Ranges [][2]int
	// LatencyWays is the first latency job's allocation: the split a
	// search picked, the online loop's final grant, or the width of an
	// offline range (0 = full cache).
	LatencyWays int
	// Reallocations and FinalWays summarize an online policy's loop
	// (zero and nil otherwise).
	Reallocations int
	FinalWays     []int
}

// Ways returns job i's allocation at the end of Main: the online loop's
// final grant, else the width of its range (0 = full cache).
func (o Outcome) Ways(i int) int {
	if i < len(o.FinalWays) {
		return o.FinalWays[i]
	}
	return o.Ranges[i][1] - o.Ranges[i][0]
}

// Harvest reads the outcome from the results of Specs, in order.
// latencyAlone is the latency job's alone time, read only by plans
// with an AloneJob: a search's candidates are the latency job's slowdown
// against it and the summed iterations of the looping jobs, and its
// rule picks among them.
func (p *Plan) Harvest(results []*machine.Result, latencyAlone float64) Outcome {
	out := Outcome{Main: results[0], Ranges: p.ranges}
	if p.search != nil {
		cands := make([]Candidate, p.assoc-1)
		for w := 1; w < p.assoc; w++ {
			res := results[w-1]
			var thru float64
			for _, j := range res.Jobs {
				if j.Background {
					thru += j.Iterations
				}
			}
			cands[w-1] = Candidate{
				FgWays:       w,
				FgSlowdown:   res.Jobs[p.lat].Seconds / latencyAlone,
				BgThroughput: thru,
			}
		}
		w := cands[p.search.Pick(cands)].FgWays
		out.Main, out.Ranges = results[w-1], p.splitRanges(w)
	}
	if tr := out.Main.Partition; p.online && tr != nil {
		out.Reallocations, out.FinalWays = tr.Reallocations, tr.FinalWays
	}
	if p.lat >= 0 {
		out.LatencyWays = out.Ways(p.lat)
	}
	return out
}

// Predict prices the plan's pair shape — latency job 0 beside a looping
// job 1 — on the fast tier. A search picks over predicted candidates
// with its own rule. An online policy is priced at the split that maximizes the
// pair's combined predicted hit rate: the utility objective, an
// approximation for online policies (dynamic included) whose own
// objectives the model does not yet forecast. An offline policy is
// priced at its static split, or at the LRU-competition equilibrium
// when it leaves the cache shared.
func (p *Plan) Predict(est *model.Estimator, fg, bg *model.Profile) model.PairPrediction {
	assoc := p.assoc
	switch {
	case p.search != nil:
		cands := make([]Candidate, assoc-1)
		preds := make([]model.PairPrediction, assoc-1)
		for w := 1; w < assoc; w++ {
			pr := est.PredictPair(fg, bg, float64(w), float64(assoc-w))
			preds[w-1] = pr
			cands[w-1] = Candidate{
				FgWays:       w,
				FgSlowdown:   pr.FgSlowdown,
				BgThroughput: pr.BgRate * pr.FgSeconds,
			}
		}
		return preds[p.search.Pick(cands)]
	case p.online:
		best, bestVal := assoc/2, -1.0
		for w := 1; w < assoc; w++ {
			v := fg.HitRatePerSec(float64(w)) + bg.HitRatePerSec(float64(assoc-w))
			if v > bestVal {
				best, bestVal = w, v
			}
		}
		return est.PredictPair(fg, bg, float64(best), float64(assoc-best))
	default:
		fgW := p.ranges[0][1] - p.ranges[0][0]
		bgW := p.ranges[1][1] - p.ranges[1][0]
		if fgW == 0 && bgW == 0 {
			wf, wb := est.SharedWays(fg, bg)
			return est.PredictPair(fg, bg, wf, wb)
		}
		return est.PredictPair(fg, bg, float64(fgW), float64(bgW))
	}
}
