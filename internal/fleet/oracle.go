package fleet

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/workload"
)

// alonePerf is one application running alone on a machine's half —
// the request service-time baseline and the single-occupant power
// state.
type alonePerf struct {
	Seconds float64 // one run to completion
	SocketW float64 // socket watts while running
	WallW   float64 // wall watts while running
}

// pairPerf is a co-location: a latency request on the front half with
// a batch occupant looping on the back half, under the fleet's
// partition mode.
type pairPerf struct {
	FgSeconds  float64 // request service time co-located
	FgSlowdown float64 // FgSeconds / alone seconds
	BgRate     float64 // batch iterations per second while co-located
	FgWays     int     // protective split chosen (0 = unpartitioned)
	SocketW    float64 // socket watts while co-running
	WallW      float64
	Reallocs   int // dynamic-controller reallocations per episode
}

// oracle holds every simulation-derived number the event loop needs.
// It is built once per fleet run by fanning all required
// single-machine simulations through the sched engine as one batch:
// the way sweeps of the biased partition check, the alone baselines,
// and (in dynamic mode) one controller-driven episode per pair. All
// memoizable specs use the canonical mix shapes, so a fleet run
// deduplicates against pair/single runs any other driver has done.
type oracle struct {
	cfg      machine.Config
	override bool // cfg differs from the runner's template

	idleSocketW float64
	idleWallW   float64

	// Every application the oracle prices is interned once to a small
	// dense ID (first-seen order: arrival classes, backlog, timeline-only
	// batch apps), so the event loop indexes tables instead of hashing
	// names.
	ids   map[string]int
	names []string
	alone []alonePerf // by app ID
	pair  []pairPerf  // by fg ID x len(names) + bg ID; zero where never priced

	// fid is the tier that built the pair table; predicted/resimmed
	// count its co-locations per source (both zero under exact).
	fid       Fidelity
	predicted int
	resimmed  int
}

// intern assigns dense IDs to names (duplicates folded) and sizes the
// alone and pair tables over them.
func (o *oracle) intern(names ...[]string) {
	o.ids = map[string]int{}
	for _, list := range names {
		for _, name := range list {
			if _, dup := o.ids[name]; !dup {
				o.ids[name] = len(o.names)
				o.names = append(o.names, name)
			}
		}
	}
	o.alone = make([]alonePerf, len(o.names))
	o.pair = make([]pairPerf, len(o.names)*len(o.names))
}

// slot is the (fg, bg) co-location's index into the pair table.
func (o *oracle) slot(fg, bg string) int { return o.ids[fg]*len(o.names) + o.ids[bg] }

// pairOf is the co-location of request app fg beside resident bg, by ID.
func (o *oracle) pairOf(fg, bg int) *pairPerf { return &o.pair[fg*len(o.names)+bg] }

// aloneOf is the alone baseline of a named application.
func (o *oracle) aloneOf(name string) alonePerf { return o.alone[o.ids[name]] }

// setAlone records name's alone baseline from its run. A run too short
// to register any time would give a resident a zero accrual rate — it
// would never finish and the episode would stall — so it is an error
// naming the remedy.
func (o *oracle) setAlone(name string, res *machine.Result, scale float64) error {
	sec := res.Jobs[0].Seconds
	if sec <= 0 {
		return fmt.Errorf("fleet: alone run of %s took %g s at scale %g; raise -scale", name, sec, scale)
	}
	o.alone[o.ids[name]] = alonePerf{
		Seconds: sec,
		SocketW: watts(res.Energy.SocketJoules, res.WindowSeconds),
		WallW:   watts(res.Energy.WallJoules, res.WindowSeconds),
	}
	return nil
}

// halfMixes builds the canonical mix shapes on the fleet's platform.
type halfMixes struct {
	cfg      machine.Config
	override bool
}

func (h halfMixes) machine() *machine.Config {
	if !h.override {
		return nil
	}
	cfg := h.cfg
	return &cfg
}

// aloneMix is an application alone on the front half: the same shape
// (threads, slots, seed) as sched.AloneHalfSpec, so it shares that
// memo entry on the default platform.
func (h halfMixes) aloneMix(app *workload.Profile) sched.MixSpec {
	threads := sched.CapThreads(app, h.cfg.Cores/2*h.cfg.ThreadsPerCore)
	slots := make([]int, threads)
	for i := range slots {
		slots[i] = i
	}
	return sched.MixSpec{
		Jobs:    []sched.MixJob{{App: app, Threads: threads, Slots: slots, Seed: "single"}},
		Machine: h.machine(),
	}
}

// pairMix is the §5 pair on the fleet's platform: the request on the
// front cores, the batch occupant looping on the back cores, each
// bounded to the given way range ([0,0) = full cache). The w-split
// convention of the sweep — request in the low ways, occupant in the
// high ways — is splitRanges. Identical to sched.PairSpec's mix on the
// default platform.
func (h halfMixes) pairMix(fg, bg *workload.Profile, fgR, bgR [2]int) sched.MixSpec {
	half := h.cfg.Cores / 2
	frontCores := make([]int, half)
	backCores := make([]int, half)
	for i := 0; i < half; i++ {
		frontCores[i], backCores[i] = i, half+i
	}
	htPerHalf := half * h.cfg.ThreadsPerCore
	return sched.MixSpec{
		Jobs: []sched.MixJob{
			{App: fg, Threads: sched.CapThreads(fg, htPerHalf),
				Slots: h.cfg.SlotsForCores(frontCores...), Seed: "fg",
				WayFirst: fgR[0], WayLim: fgR[1]},
			{App: bg, Threads: sched.CapThreads(bg, htPerHalf),
				Slots: h.cfg.SlotsForCores(backCores...), Background: true,
				Seed: "bg", WayFirst: bgR[0], WayLim: bgR[1]},
		},
		Machine: h.machine(),
	}
}

// splitRanges is the sweep convention: request ways [0, w), occupant
// ways [w, assoc); w == 0 leaves the cache fully shared.
func splitRanges(w, assoc int) (fgR, bgR [2]int) {
	if w > 0 {
		fgR = [2]int{0, w}
		bgR = [2]int{w, assoc}
	}
	return fgR, bgR
}

// onlinePairMix is a co-location episode under an online policy: the
// shared-cache pair with the policy's decision loop attached, keyed by
// the policy's RunKey so episodes memoize and disk-cache without
// aliasing across policies.
func (h halfMixes) onlinePairMix(fg, bg *workload.Profile, pol partition.Policy, interval float64) sched.MixSpec {
	mix := h.pairMix(fg, bg, [2]int{}, [2]int{})
	mix.Setup = func(m *machine.Machine, jobs []*machine.Job) {
		partition.AttachLoop(m, []partition.LoopJob{
			{Job: jobs[0], Cores: jobs[0].Cores(), App: fg.Name, Latency: true},
			{Job: jobs[1], Cores: jobs[1].Cores(), App: bg.Name},
		}, pol, interval)
	}
	mix.PolicyKey = partition.RunKey(pol, interval, []bool{true, false})
	return mix
}

// buildOracle plans and executes every simulation the fleet run needs
// as one engine batch. Its work is traced under an "oracle" span below
// parent, with the exact tier's batch labeled "oracle" and the
// analytic tiers' probe/predict/resim structure under buildFast.
func buildOracle(r *sched.Runner, d *Def, parent obs.SpanID) (*oracle, error) {
	osp := r.Tracer().Start("oracle", parent,
		obs.String("fidelity", string(d.fidelity())),
		obs.String("partition", string(d.partition())))
	// End is idempotent: error paths end the span bare, the success
	// path ends it with pair-table attrs first.
	defer osp.End()
	cfg := r.MachineConfig()
	override := false
	if d.Cores > 0 && d.Cores != cfg.Cores {
		cfg, override = machine.DefaultWithCores(d.Cores), true
	}
	if cfg.Cores < 2 || cfg.Cores%2 != 0 {
		return nil, fmt.Errorf("fleet: machines need an even core count >= 2, got %d", cfg.Cores)
	}
	h := halfMixes{cfg: cfg, override: override}
	assoc := cfg.Hier.LLC.Assoc

	o := &oracle{
		cfg: cfg, override: override,
		idleSocketW: cfg.Energy.IdlePowerSocket(cfg.Cores),
		idleWallW:   cfg.Energy.IdlePowerWall(cfg.Cores),
		fid:         FidelityExact,
	}

	fgs, bgs := d.fgApps(), d.bgApps()
	// Timeline batch-arrivals can introduce apps the declared backlog
	// never mentions; the oracle must price them too. The exact tier
	// plans them as a separate "replace" batch so traces attribute the
	// recovery work; the analytic tiers just fold them into the pool.
	inBgs := map[string]bool{}
	for _, name := range bgs {
		inBgs[name] = true
	}
	var evBgs []string
	for _, name := range d.eventApps() {
		if !inBgs[name] {
			evBgs = append(evBgs, name)
		}
	}
	o.intern(fgs, bgs, evBgs)
	apps := map[string]*workload.Profile{}
	for _, name := range o.names {
		apps[name] = workload.MustByName(name)
	}
	// Every oracle prices each request app beside each batch app.
	npairs := len(fgs) * (len(bgs) + len(evBgs))

	// One batch: alone baselines for every app, then per (fg, bg) pair
	// either the full way sweep (biased), the shared co-run, or one
	// controller-driven episode (dynamic).
	var specs []sched.Spec
	aloneAt := map[string]int{}
	for _, name := range fgs {
		aloneAt[name] = len(specs)
		specs = append(specs, h.aloneMix(apps[name]))
	}
	for _, name := range bgs {
		if _, dup := aloneAt[name]; dup {
			continue
		}
		aloneAt[name] = len(specs)
		specs = append(specs, h.aloneMix(apps[name]))
	}

	// Per (fg, bg) pair, the specs the fleet's partition policy needs:
	// a Searcher sweeps every uneven split, an online policy runs one
	// loop-attached episode, and an offline policy runs the single
	// static split its Decide picks for the pair shape. All dispatch is
	// through the policy interface — a newly registered policy needs no
	// fleet change.
	pol, err := d.policy()
	if err != nil {
		return nil, err
	}
	if err := d.checkEpisodeShape(pol, assoc); err != nil {
		return nil, err
	}
	searcher, _ := pol.(partition.Searcher)

	if fid := d.fidelity(); fid != FidelityExact {
		// The analytic tiers replace the per-pair simulations with MRC
		// predictions (re-simulating borderline pairs under auto); the
		// alone baselines stay exact in every tier.
		if err := o.buildFast(r, d, h, pol, searcher, fgs, append(append([]string{}, bgs...), evBgs...), apps, assoc, fid, osp.ID()); err != nil {
			return nil, err
		}
		osp.End(obs.Int("alone", len(o.names)), obs.Int("pairs", npairs))
		return o, nil
	}

	pairAt := map[int]int{} // first spec index of the pair's runs, by slot
	for _, fg := range fgs {
		for _, bg := range bgs {
			pairAt[o.slot(fg, bg)] = len(specs)
			specs = append(specs, pairSpecs(r, h, apps[fg], apps[bg], pol, searcher, assoc)...)
		}
	}

	results := r.RunBatchIn(sched.BatchInfo{Span: osp.ID(), Phase: "oracle"}, specs)

	// Harvest in ID order so the first too-short alone run reported is
	// deterministic.
	for _, name := range o.names {
		if at, ok := aloneAt[name]; ok {
			if err := o.setAlone(name, results[at], r.Scale()); err != nil {
				return nil, err
			}
		}
	}

	for _, fg := range fgs {
		for _, bg := range bgs {
			k := o.slot(fg, bg)
			o.pair[k] = harvestPair(results, pairAt[k], pol, searcher, assoc, o.aloneOf(fg).Seconds)
		}
	}

	// Event-only apps get their own "replace" batch: the alone baseline
	// (unless an arrival class already priced it) plus one pair per
	// request class, so re-placement after churn dedups against the
	// initial batch through the same memo keys.
	if len(evBgs) > 0 {
		var rspecs []sched.Spec
		evAloneAt := map[string]int{}
		for _, name := range evBgs {
			if _, have := aloneAt[name]; have {
				continue
			}
			evAloneAt[name] = len(rspecs)
			rspecs = append(rspecs, h.aloneMix(apps[name]))
		}
		evPairAt := map[int]int{}
		for _, fg := range fgs {
			for _, bg := range evBgs {
				evPairAt[o.slot(fg, bg)] = len(rspecs)
				rspecs = append(rspecs, pairSpecs(r, h, apps[fg], apps[bg], pol, searcher, assoc)...)
			}
		}
		rresults := r.RunBatchIn(sched.BatchInfo{Span: osp.ID(), Phase: "replace"}, rspecs)
		for _, name := range evBgs {
			if at, ok := evAloneAt[name]; ok {
				if err := o.setAlone(name, rresults[at], r.Scale()); err != nil {
					return nil, err
				}
			}
		}
		for _, fg := range fgs {
			for _, bg := range evBgs {
				k := o.slot(fg, bg)
				o.pair[k] = harvestPair(rresults, evPairAt[k], pol, searcher, assoc, o.aloneOf(fg).Seconds)
			}
		}
	}
	osp.End(obs.Int("alone", len(o.names)), obs.Int("pairs", npairs))
	return o, nil
}

// pairSpecs returns the simulations one (fg, bg) co-location needs
// under the partition policy: a Searcher sweeps every uneven split, an
// online policy runs one loop-attached episode, and an offline policy
// runs the single static split its Decide picks for the pair shape.
// All dispatch is through the policy interface — a newly registered
// policy needs no fleet change.
func pairSpecs(r *sched.Runner, h halfMixes, fg, bg *workload.Profile, pol partition.Policy, searcher partition.Searcher, assoc int) []sched.Spec {
	switch {
	case searcher != nil:
		out := make([]sched.Spec, 0, assoc-1)
		for w := 1; w < assoc; w++ {
			fgR, bgR := splitRanges(w, assoc)
			out = append(out, h.pairMix(fg, bg, fgR, bgR))
		}
		return out
	case pol.Online():
		interval := partition.SamplingInterval(fg, r.Scale())
		return []sched.Spec{h.onlinePairMix(fg, bg, pol, interval)}
	default:
		fgW, bgW := partition.PairWays(pol, assoc)
		fgR, bgR := [2]int{}, [2]int{}
		if fgW > 0 || bgW > 0 {
			fgR = [2]int{0, fgW}
			bgR = [2]int{assoc - bgW, assoc}
		}
		return []sched.Spec{h.pairMix(fg, bg, fgR, bgR)}
	}
}

// harvestPair reads one pair's pairPerf out of the batch results,
// starting at the pair's first spec index.
func harvestPair(results []*machine.Result, at int, pol partition.Policy, searcher partition.Searcher, assoc int, fgAlone float64) pairPerf {
	var res *machine.Result
	var fgWays, reallocs int
	switch {
	case searcher != nil:
		// The policy's selection rule over the measured sweep;
		// the fleet default is the protective Figure 13 rule
		// (minimum request degradation, ties toward the larger
		// request share).
		cands := make([]partition.Candidate, assoc-1)
		for w := 1; w < assoc; w++ {
			sw := results[at+w-1]
			cands[w-1] = partition.Candidate{
				FgWays:       w,
				FgSlowdown:   sw.Jobs[0].Seconds / fgAlone,
				BgThroughput: sw.Jobs[1].Iterations,
			}
		}
		fgWays = cands[searcher.Pick(cands)].FgWays
		res = results[at+fgWays-1]
	case pol.Online():
		res = results[at]
		if tr := res.Partition; tr != nil {
			reallocs = tr.Reallocations
			if len(tr.FinalWays) > 0 {
				fgWays = tr.FinalWays[0]
			}
		}
	default:
		res = results[at]
		fgWays, _ = partition.PairWays(pol, assoc)
	}
	return pairPerf{
		FgSeconds:  res.Jobs[0].Seconds,
		FgSlowdown: res.Jobs[0].Seconds / fgAlone,
		BgRate:     rate(res.Jobs[1].Iterations, res.WindowSeconds),
		FgWays:     fgWays,
		SocketW:    watts(res.Energy.SocketJoules, res.WindowSeconds),
		WallW:      watts(res.Energy.WallJoules, res.WindowSeconds),
		Reallocs:   reallocs,
	}
}

// powerState returns the socket/wall power of a machine in the given
// occupancy state, by app ID (-1 = that half is empty).
func (o *oracle) powerState(fg, bg int) (socketW, wallW float64) {
	switch {
	case fg < 0 && bg < 0:
		return o.idleSocketW, o.idleWallW
	case fg >= 0 && bg >= 0:
		p := o.pairOf(fg, bg)
		return p.SocketW, p.WallW
	case fg >= 0:
		a := &o.alone[fg]
		return a.SocketW, a.WallW
	default:
		a := &o.alone[bg]
		return a.SocketW, a.WallW
	}
}

func watts(joules, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return joules / seconds
}

func rate(iters, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return iters / seconds
}
