package fleet

import (
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/workload"
)

// probeAloneMix is the profiling run of the fast tiers: the canonical
// alone-half mix with the MRC monitor attached. The monitor is
// shadow-only, so the run's timing/energy fields are byte-identical to
// aloneMix's — the fast tiers' alone baselines are exact — while the
// ProbeKey gives the run a memo/disk key that can never alias the
// unprobed mix (or another model version).
func (h halfMixes) probeAloneMix(app *workload.Profile) sched.MixSpec {
	mix := h.aloneMix(app)
	mix.Setup = model.ProbeSetup()
	mix.ProbeKey = model.ProbeKey()
	return mix
}

// buildFast fills the oracle's tables under the fast or auto tier: one
// profiling run per distinct application, MRC+CPI predictions for
// every co-location, and — under auto — exact re-simulation of the
// borderline pairs whose predicted request slowdown lands within the
// fleet's fast_margin of slowdown_limit (the band where an analytic
// error could flip a pack-partition admission decision).
func (o *oracle) buildFast(r *sched.Runner, d *Def, h halfMixes, pol partition.Policy,
	searcher partition.Searcher, fgs, bgs []string, apps map[string]*workload.Profile,
	assoc int, fid Fidelity, span obs.SpanID) error {
	o.fid = fid

	var specs []sched.Spec
	probeAt := map[string]int{}
	var order []string
	for _, name := range append(append([]string{}, fgs...), bgs...) {
		if _, dup := probeAt[name]; dup {
			continue
		}
		probeAt[name] = len(specs)
		order = append(order, name)
		specs = append(specs, h.probeAloneMix(apps[name]))
	}
	results := r.RunBatchIn(sched.BatchInfo{Span: span, Phase: "probe"}, specs)

	// "predict" covers the analytic work that replaces simulation:
	// building MRC profiles from the probes and pricing every pair.
	p0 := time.Now()
	psp := r.Tracer().Start("predict", span, obs.Int("profiles", len(order)))
	profiles := map[string]*model.Profile{}
	for _, name := range order {
		res := results[probeAt[name]]
		if err := o.setAlone(name, res, r.Scale()); err != nil {
			psp.End()
			return err
		}
		p, err := model.NewProfile(name, apps[name].MLP, res, 0, o.cfg)
		if err != nil {
			psp.End()
			return err
		}
		profiles[name] = p
	}

	est := model.NewEstimator(o.cfg)
	for _, fg := range fgs {
		for _, bg := range bgs {
			o.pair[o.slot(fg, bg)] = predictPair(est, pol, searcher, profiles[fg], profiles[bg], assoc)
			o.predicted++
		}
	}
	psp.End(obs.Int("pairs", o.predicted))
	r.AddPhase("predict", time.Since(p0))

	if fid != FidelityAuto {
		return nil
	}

	// Auto: re-simulate the borderline pairs exactly, in the same spec
	// order the exact tier would have planned them.
	limit, margin := d.slowdownLimit(), d.fastMargin()
	var exact []sched.Spec
	exactAt := map[int]int{} // by slot
	for _, fg := range fgs {
		for _, bg := range bgs {
			key := o.slot(fg, bg)
			diff := o.pair[key].FgSlowdown - limit
			if diff < 0 {
				diff = -diff
			}
			if diff > margin {
				continue
			}
			exactAt[key] = len(exact)
			exact = append(exact, pairSpecs(r, h, apps[fg], apps[bg], pol, searcher, assoc)...)
		}
	}
	if len(exact) == 0 {
		return nil
	}
	exactRes := r.RunBatchIn(sched.BatchInfo{Span: span, Phase: "resim"}, exact)
	for _, fg := range fgs {
		for _, bg := range bgs {
			key := o.slot(fg, bg)
			at, ok := exactAt[key]
			if !ok {
				continue
			}
			o.pair[key] = harvestPair(exactRes, at, pol, searcher, assoc, o.aloneOf(fg).Seconds)
			o.predicted--
			o.resimmed++
		}
	}
	return nil
}

// predictPair forecasts one co-location under the partition policy,
// mirroring the exact tier's dispatch: a Searcher picks over predicted
// candidates with its own selection rule, an online policy gets the
// split that maximizes combined predicted hit rate (the utility
// objective), and an offline policy is priced at its static split —
// or at the LRU-competition equilibrium when it leaves the cache
// shared.
func predictPair(est *model.Estimator, pol partition.Policy, searcher partition.Searcher,
	fg, bg *model.Profile, assoc int) pairPerf {
	var pred model.PairPrediction
	var fgWays int
	switch {
	case searcher != nil:
		cands := make([]partition.Candidate, assoc-1)
		preds := make([]model.PairPrediction, assoc-1)
		for w := 1; w < assoc; w++ {
			p := est.PredictPair(fg, bg, float64(w), float64(assoc-w))
			preds[w-1] = p
			cands[w-1] = partition.Candidate{
				FgWays:       w,
				FgSlowdown:   p.FgSlowdown,
				BgThroughput: p.BgRate * p.FgSeconds,
			}
		}
		pick := searcher.Pick(cands)
		pred, fgWays = preds[pick], cands[pick].FgWays
	case pol.Online():
		best, bestVal := assoc/2, -1.0
		for w := 1; w < assoc; w++ {
			v := fg.HitRatePerSec(float64(w)) + bg.HitRatePerSec(float64(assoc-w))
			if v > bestVal {
				best, bestVal = w, v
			}
		}
		pred, fgWays = est.PredictPair(fg, bg, float64(best), float64(assoc-best)), best
	default:
		fgW, bgW := partition.PairWays(pol, assoc)
		if fgW == 0 && bgW == 0 {
			wf, wb := est.SharedWays(fg, bg)
			pred, fgWays = est.PredictPair(fg, bg, wf, wb), 0
		} else {
			pred, fgWays = est.PredictPair(fg, bg, float64(fgW), float64(bgW)), fgW
		}
	}
	return pairPerf{
		FgSeconds:  pred.FgSeconds,
		FgSlowdown: pred.FgSlowdown,
		BgRate:     pred.BgRate,
		FgWays:     fgWays,
		SocketW:    pred.SocketW,
		WallW:      pred.WallW,
	}
}
