package fleet

import (
	"fmt"
	"slices"

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
	SocketW    float64 // socket watts while co-running
	WallW      float64
	Reallocs   int // online-policy reallocations per episode
}

// oracle holds every simulation-derived number the event loop needs.
// It is built once per fleet run by fanning all required
// single-machine simulations through the sched engine as one batch:
// the alone baselines plus each co-location's partition-plan runs (the
// biased way sweep, an online policy's episode, or a static split).
// All memoizable specs use the canonical mix shapes, so a fleet run
// deduplicates against pair/single runs any other driver has done.
type oracle struct {
	cfg machine.Config

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
	cfg machine.Config
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
		Machine: sched.Platform(h.cfg),
	}
}

// pairMix is the §5 pair on the fleet's platform at the full cache:
// the request on the front cores, the batch occupant looping on the
// back cores — the mix each co-location's partition plan prices.
// Identical to sched.PairSpec's mix on the default platform.
func (h halfMixes) pairMix(fg, bg *workload.Profile) partition.Mix {
	half := h.cfg.Cores / 2
	frontCores := make([]int, half)
	backCores := make([]int, half)
	for i := 0; i < half; i++ {
		frontCores[i], backCores[i] = i, half+i
	}
	htPerHalf := half * h.cfg.ThreadsPerCore
	return partition.Mix{
		Spec: sched.MixSpec{
			Jobs: []sched.MixJob{
				{App: fg, Threads: sched.CapThreads(fg, htPerHalf),
					Slots: h.cfg.SlotsForCores(frontCores...), Seed: "fg"},
				{App: bg, Threads: sched.CapThreads(bg, htPerHalf),
					Slots: h.cfg.SlotsForCores(backCores...), Background: true, Seed: "bg"},
			},
			Machine: sched.Platform(h.cfg),
		},
		Latency: []bool{true, false},
	}
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
	if d.Cores > 0 && d.Cores != cfg.Cores {
		cfg = machine.DefaultWithCores(d.Cores)
	}
	if cfg.Cores < 2 || cfg.Cores%2 != 0 {
		return nil, fmt.Errorf("fleet: machines need an even core count >= 2, got %d", cfg.Cores)
	}
	h := halfMixes{cfg: cfg}
	assoc := cfg.Hier.LLC.Assoc

	o := &oracle{
		cfg:         cfg,
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

	// Per (fg, bg) pair, one partition plan prices the fleet's policy:
	// its specs for the exact tier, its prediction for the analytic
	// ones. All dispatch is in the plan — a newly registered policy
	// needs no fleet change.
	pol, err := d.policy()
	if err != nil {
		return nil, err
	}
	if err := d.checkEpisodeShape(pol, assoc); err != nil {
		return nil, err
	}
	allBgs := slices.Concat(bgs, evBgs)
	plans := make([]*partition.Plan, len(o.pair)) // by slot
	for _, fg := range fgs {
		for _, bg := range allBgs {
			plan, err := partition.NewPlan(pol, h.pairMix(apps[fg], apps[bg]), cfg, r.Scale())
			if err != nil {
				return nil, fmt.Errorf("fleet: partition mode %s: %w", d.partition(), err)
			}
			plans[o.slot(fg, bg)] = plan
		}
	}

	if fid := d.fidelity(); fid != FidelityExact {
		// The analytic tiers replace the per-pair simulations with MRC
		// predictions (re-simulating borderline pairs under auto); the
		// alone baselines stay exact in every tier.
		if err := o.buildFast(r, d, h, plans, fgs, allBgs, apps, fid, osp.ID()); err != nil {
			return nil, err
		}
		osp.End(obs.Int("alone", len(o.names)), obs.Int("pairs", npairs))
		return o, nil
	}

	// One batch prices every app's alone baseline and each (fg, bg)
	// co-location. Event-only apps follow in their own "replace" batch,
	// which dedups against the first through the same memo keys.
	if err := o.exactBatch(r, h, apps, plans, osp.ID(), "oracle", slices.Concat(fgs, bgs), fgs, bgs); err != nil {
		return nil, err
	}
	if len(evBgs) > 0 {
		if err := o.exactBatch(r, h, apps, plans, osp.ID(), "replace", evBgs, fgs, evBgs); err != nil {
			return nil, err
		}
	}
	osp.End(obs.Int("alone", len(o.names)), obs.Int("pairs", npairs))
	return o, nil
}

// exactBatch runs one exact-tier engine batch labeled phase under
// span: the alone baseline of each app in alone not yet priced, then
// the plan runs of every (fg, bg) co-location. It fills the oracle's
// alone and pair tables from the results, harvesting alone runs in ID
// order so the first too-short run reported is deterministic.
func (o *oracle) exactBatch(r *sched.Runner, h halfMixes, apps map[string]*workload.Profile,
	plans []*partition.Plan, span obs.SpanID, phase string, alone, fgs, bgs []string) error {
	var specs []sched.Spec
	aloneAt := map[string]int{}
	for _, name := range alone {
		if _, dup := aloneAt[name]; dup || o.aloneOf(name).Seconds > 0 {
			continue
		}
		aloneAt[name] = len(specs)
		specs = append(specs, h.aloneMix(apps[name]))
	}
	pairAt := map[int]int{} // first spec index of the pair's runs, by slot
	for _, fg := range fgs {
		for _, bg := range bgs {
			pairAt[o.slot(fg, bg)] = len(specs)
			specs = append(specs, plans[o.slot(fg, bg)].Specs()...)
		}
	}

	results := r.RunBatchIn(sched.BatchInfo{Span: span, Phase: phase}, specs)
	for _, name := range o.names {
		if at, ok := aloneAt[name]; ok {
			if err := o.setAlone(name, results[at], r.Scale()); err != nil {
				return err
			}
		}
	}
	for _, fg := range fgs {
		for _, bg := range bgs {
			k := o.slot(fg, bg)
			o.pair[k] = exactPerf(plans[k], results[pairAt[k]:], o.aloneOf(fg).Seconds)
		}
	}
	return nil
}

// exactPerf harvests one co-location's pairPerf from its plan's
// results (the slice starting at the pair's first spec).
func exactPerf(plan *partition.Plan, results []*machine.Result, fgAlone float64) pairPerf {
	out := plan.Harvest(results, fgAlone)
	res := out.Main
	return pairPerf{
		FgSeconds:  res.Jobs[0].Seconds,
		FgSlowdown: res.Jobs[0].Seconds / fgAlone,
		BgRate:     rate(res.Jobs[1].Iterations, res.WindowSeconds),
		SocketW:    watts(res.Energy.SocketJoules, res.WindowSeconds),
		WallW:      watts(res.Energy.WallJoules, res.WindowSeconds),
		Reallocs:   out.Reallocations,
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
