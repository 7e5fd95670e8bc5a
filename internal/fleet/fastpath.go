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
func (o *oracle) buildFast(r *sched.Runner, d *Def, h halfMixes, plans []*partition.Plan,
	fgs, bgs []string, apps map[string]*workload.Profile, fid Fidelity, span obs.SpanID) error {
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
			k := o.slot(fg, bg)
			pred := plans[k].Predict(est, profiles[fg], profiles[bg])
			o.pair[k] = pairPerf{
				FgSeconds:  pred.FgSeconds,
				FgSlowdown: pred.FgSlowdown,
				BgRate:     pred.BgRate,
				SocketW:    pred.SocketW,
				WallW:      pred.WallW,
			}
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
			exact = append(exact, plans[key].Specs()...)
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
			o.pair[key] = exactPerf(plans[key], exactRes[at:], o.aloneOf(fg).Seconds)
			o.predicted--
			o.resimmed++
		}
	}
	return nil
}
