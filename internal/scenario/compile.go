package scenario

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/workload"
)

// Instance is one resolved job of a planned scenario: a JobDef replica
// with its application profile, rng seed, slot grant, and (for static
// policies) LLC way range.
type Instance struct {
	App     *workload.Profile
	Role    Role
	Threads int // granted threads: request capped by profile and slots
	Loop    bool
	Seed    string
	Slots   []int
	// WayFirst/WayLim is the static LLC range [WayFirst, WayLim);
	// both zero = full cache.
	WayFirst, WayLim int
	// Declared is the job's explicitly declared way range, if any (the
	// explicit policy's input; 0,0 = none).
	Declared [2]int
}

// WaysLabel renders the instance's LLC range for reports: "all" for
// the full cache, "[first,lim)" otherwise.
func (i Instance) WaysLabel() string {
	if i.WayFirst == 0 && i.WayLim == 0 {
		return "all"
	}
	return fmt.Sprintf("[%d,%d)", i.WayFirst, i.WayLim)
}

// Plan is a scenario resolved against a platform: the effective
// machine, the expanded instances with validated placements, and the
// way ranges of the static policies. Search and online scenarios plan
// with full-cache ranges; Run assigns their splits.
type Plan struct {
	Scenario  *Scenario
	Config    machine.Config
	Instances []Instance

	pricing *partition.Plan // the partition policy priced on this mix
}

func placementPolicy(name string) (machine.PlacementPolicy, error) {
	return machine.PlacementPolicyByName(name)
}

// Plan resolves the scenario against the given platform template:
// machine override, job expansion (replicas, default threads and
// seeds), placement planning, and static way assignment. Everything a
// scenario file can get wrong surfaces here as a descriptive error.
func (s *Scenario) Plan(base machine.Config) (*Plan, error) { return s.plan(base, 0) }

// plan is Plan with the instruction scale an online policy's sampling
// interval is sized from (0 when only the static ranges are needed).
func (s *Scenario) plan(base machine.Config, scale float64) (*Plan, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.Fleet != nil {
		return nil, fmt.Errorf("scenario %q: fleet scenarios run on the fleet layer; use 'cachepart fleet run' or fleet.Run", s.Name)
	}
	cfg := base
	if s.Machine.Cores > 0 && s.Machine.Cores != base.Cores {
		// A core-count override rebuilds the default platform at that
		// size; scenario machines always use the paper's geometry.
		cfg = machine.DefaultWithCores(s.Machine.Cores)
	}

	// Expand replicas and assign seeds.
	type protoInst struct {
		def     *JobDef
		replica int
	}
	var protos []protoInst
	latency, others := 0, 0
	for i := range s.Jobs {
		d := &s.Jobs[i]
		for k := 0; k < d.count(); k++ {
			protos = append(protos, protoInst{def: d, replica: k})
		}
		if d.role() == RoleLatency {
			latency += d.count()
		} else {
			others += d.count()
		}
	}
	insts := make([]Instance, len(protos))
	seedsSeen := map[string]bool{}
	li, oi := 0, 0
	for i, p := range protos {
		app := workload.MustByName(p.def.App)
		threads := p.def.Threads
		if threads == 0 {
			threads = cfg.ThreadsPerCore
		}
		var seed string
		switch {
		case p.def.Seed != "" && p.def.count() == 1:
			seed = p.def.Seed
		case p.def.Seed != "":
			seed = fmt.Sprintf("%s%d", p.def.Seed, p.replica)
		case len(protos) == 1:
			seed = "single"
		case p.def.role() == RoleLatency && latency == 1:
			seed = "fg"
		case p.def.role() == RoleLatency:
			seed = fmt.Sprintf("fg%d", li)
		case others == 1:
			seed = "bg"
		default:
			seed = fmt.Sprintf("bg%d", oi)
		}
		if p.def.role() == RoleLatency {
			li++
		} else {
			oi++
		}
		key := app.Name + "/" + seed
		if seedsSeen[key] {
			return nil, fmt.Errorf("scenario %q: two instances of %s share seed %q (give replicas distinct seeds)",
				s.Name, app.Name, seed)
		}
		seedsSeen[key] = true
		insts[i] = Instance{
			App: app, Role: p.def.role(), Threads: threads,
			Loop: p.def.loops(), Seed: seed,
		}
	}

	// Placement.
	pol, err := placementPolicy(s.Placement.Policy)
	if err != nil {
		return nil, err
	}
	if pol == machine.PlaceExplicit {
		lists := make([][]int, len(protos))
		for i, p := range protos {
			if len(p.def.Slots) == 0 {
				return nil, fmt.Errorf("scenario %q: explicit placement but job %s has no slots",
					s.Name, p.def.App)
			}
			lists[i] = p.def.Slots
		}
		if err := machine.ValidateSlots(cfg, lists); err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		for i := range insts {
			insts[i].Slots = lists[i]
		}
	} else {
		reqs := make([]int, len(insts))
		for i := range insts {
			reqs[i] = insts[i].Threads
		}
		lists, err := machine.Plan(cfg, pol, reqs)
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		for i := range insts {
			insts[i].Slots = lists[i]
		}
	}
	// The granted thread count is the request capped by the profile and
	// by the slot grant (over-subscribed mixes shrink).
	for i := range insts {
		t := sched.CapThreads(insts[i].App, insts[i].Threads)
		if t > len(insts[i].Slots) {
			t = len(insts[i].Slots)
		}
		insts[i].Threads = t
	}

	// Record each job's declared way range (the explicit policy's
	// input) on its instances.
	for i, p := range protos {
		if p.def.Ways != nil {
			insts[i].Declared = *p.def.Ways
		}
	}

	// Partition-policy way assignment: the policy re-validates against
	// the real geometry, and offline policies' static ranges land on
	// the instances; search (biased) and online (dynamic, utility)
	// policies plan with the full cache and decide at run time.
	ppol, err := s.Policy()
	if err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	plan := &Plan{Scenario: s, Config: cfg, Instances: insts}
	mix := partition.Mix{Spec: plan.baseMix(),
		Latency: make([]bool, len(insts)), Declared: make([][2]int, len(insts))}
	for i, inst := range insts {
		mix.Latency[i], mix.Declared[i] = inst.Role == RoleLatency, inst.Declared
	}
	if plan.pricing, err = partition.NewPlan(ppol, mix, cfg, scale); err != nil {
		return nil, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	for i, r := range plan.pricing.Ranges() {
		insts[i].WayFirst, insts[i].WayLim = r[0], r[1]
	}
	return plan, nil
}

// baseMix builds the runnable spec of the planned instances at the
// full cache — the mix the partition plan prices.
func (p *Plan) baseMix() sched.MixSpec {
	jobs := make([]sched.MixJob, len(p.Instances))
	for i, inst := range p.Instances {
		jobs[i] = sched.MixJob{
			App: inst.App, Threads: inst.Threads, Slots: inst.Slots,
			Background: inst.Loop, Seed: inst.Seed,
		}
	}
	return sched.MixSpec{Jobs: jobs, Machine: sched.Platform(p.Config)}
}

// aloneMix is instance i's baseline: the same placement and seed alone
// on the machine with the full LLC — the "versus running alone"
// reference the slowdown and weighted-speedup metrics normalize to.
func (p *Plan) aloneMix(i int) sched.MixSpec {
	inst := p.Instances[i]
	return sched.MixSpec{Jobs: []sched.MixJob{{
		App: inst.App, Threads: inst.Threads, Slots: inst.Slots, Seed: inst.Seed,
	}}, Machine: sched.Platform(p.Config)}
}

// Compile builds the runnable, memoizable spec for an offline-policy
// scenario (shared, fair, explicit). Search and online policies need
// the engine to sweep or monitor — run them with Run, or batch an
// online mix through CompileOnline.
func (s *Scenario) Compile(base machine.Config) (sched.MixSpec, error) {
	p, err := s.Plan(base)
	if err != nil {
		return sched.MixSpec{}, err
	}
	spec, ok := p.pricing.StaticSpec()
	if !ok {
		return sched.MixSpec{}, fmt.Errorf("scenario %q: the %s policy is engine-driven; use scenario.Run",
			s.Name, s.PartitionName())
	}
	return spec, nil
}

// CompileOnline builds the loop-attached spec of an online-policy
// scenario (dynamic, utility, ...): the mix plus a setup hook that
// attaches the policy's decision loop at the engine-conventional
// sampling interval. With lp nil the spec is memoizable, keyed by the
// policy's RunKey, so identical policy runs dedup and disk-cache like
// any other shape; passing lp (receiving each attached run's live
// loop, for its MPKI/allocation time series) keeps the run
// non-memoized, since a cached result could not carry the series.
// Drivers use this to batch many online runs in one engine fan-out.
func (s *Scenario) CompileOnline(base machine.Config, scale float64, lp **partition.Loop) (sched.MixSpec, error) {
	p, err := s.plan(base, scale)
	if err != nil {
		return sched.MixSpec{}, err
	}
	spec, ok := p.pricing.LoopSpec(lp)
	if !ok {
		return sched.MixSpec{}, fmt.Errorf("scenario %q: CompileOnline on offline policy %s", s.Name, s.PartitionName())
	}
	return spec, nil
}
