package partition

import (
	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/perfmon"
)

// LoopJob is one job of the decision loop: the job whose cores a
// policy decision's mask applies to and whose counters it reads.
type LoopJob struct {
	Job     *machine.Job
	Latency bool
	// Declared is the job's declared way range, if any (explicit
	// policy input; offline use only).
	Declared [2]int
}

// Loop is the shared online decision loop every online policy runs
// under — the one place masks are read, snapshots are built, Decide is
// called, and changed masks are applied. It registers a machine ticker
// at the sampling interval and reports its activity into the run's
// Result through machine.SetPartitionSource, so policy traces survive
// memoization.
type Loop struct {
	m     *machine.Machine
	pol   Policy
	jobs  []LoopJob
	es    []*perfmon.EventSet
	util  []*perfmon.UtilitySet // nil unless the policy consumes utility curves
	cur   []cache.WayMask       // applied masks (0 = full cache)
	mon   int                   // monitored (latency) job index, -1 if none
	assoc int

	snap     Snapshot              // reusable snapshot
	deltas   []machine.JobCounters // reusable interval readings
	reallocs int
	samples  []perfmon.Sample
}

// AttachLoop installs pol's per-run instance on a machine before Run:
// it opens the per-job event sets (and, for UtilityConsumer policies,
// the shadow utility monitors), applies the policy's initial decision,
// and registers the sampling ticker. The returned loop exposes the
// live allocation and the recorded time series.
func AttachLoop(m *machine.Machine, jobs []LoopJob, pol Policy, intervalSeconds float64) *Loop {
	if intervalSeconds <= 0 {
		panic("partition: decision loop needs a positive sampling interval")
	}
	assoc := m.Config().Hier.LLC.Assoc
	l := &Loop{
		m:      m,
		pol:    pol.Instance(),
		jobs:   jobs,
		es:     make([]*perfmon.EventSet, len(jobs)),
		util:   make([]*perfmon.UtilitySet, len(jobs)),
		cur:    make([]cache.WayMask, len(jobs)),
		mon:    -1,
		assoc:  assoc,
		deltas: make([]machine.JobCounters, len(jobs)),
	}
	lat := 0
	for i := range jobs {
		if jobs[i].Latency {
			l.mon = i
			lat++
		}
		l.es[i] = perfmon.Open(m, jobs[i].Job)
	}
	if lat != 1 {
		l.mon = -1
	}
	if uc, ok := l.pol.(UtilityConsumer); ok {
		for i := range jobs {
			l.util[i] = perfmon.OpenUtility(m, jobs[i].Job, uc.UMONSampleShift())
		}
	}

	l.snap = Snapshot{Assoc: assoc, Jobs: make([]JobView, len(jobs))}
	for i := range jobs {
		l.snap.Jobs[i] = JobView{
			App: jobs[i].Job.Name(), Latency: jobs[i].Latency,
			Declared: jobs[i].Declared, Ways: assoc,
		}
	}
	l.apply(l.pol.Decide(&l.snap))
	m.RegisterTicker(intervalSeconds, l.tick)
	m.SetPartitionSource(l.trace)
	return l
}

// apply installs a decision, counting a reallocation when any group's
// mask actually changed. Masks equal to the full mask are normalized
// to the zero (unrestricted) form first so "full cache" has one
// spelling.
func (l *Loop) apply(masks []cache.WayMask) {
	if err := ValidateMasks(l.assoc, len(l.jobs), masks); err != nil {
		panic(err.Error())
	}
	full := cache.FullMask(l.assoc)
	changed := false
	for i, mk := range masks {
		if mk == full {
			mk = 0
		}
		if mk == l.cur[i] {
			continue
		}
		eff := mk
		if eff == 0 {
			eff = full
		}
		for _, c := range l.jobs[i].Job.Cores() {
			l.m.Hierarchy().SetWayMask(c, eff)
		}
		l.cur[i] = mk
		changed = true
	}
	if changed {
		l.reallocs++
	}
}

// tick runs one sampling interval: read every job's interval counters
// (references always advance), skip idle intervals, record the
// monitored job's sample, and apply the policy's decision.
func (l *Loop) tick(now float64) {
	for i := range l.jobs {
		l.deltas[i] = l.es[i].ReadInterval()
	}
	if l.mon >= 0 {
		if l.deltas[l.mon].Instructions <= 0 {
			return
		}
	} else {
		total := 0.0
		for i := range l.deltas {
			total += l.deltas[i].Instructions
		}
		if total <= 0 {
			return
		}
	}

	l.snap.Now = now
	l.snap.Live = true
	for i := range l.jobs {
		jv := &l.snap.Jobs[i]
		jv.Ways = l.WaysOf(i)
		jv.MPKI = l.deltas[i].MPKI()
		jv.Instructions = l.deltas[i].Instructions
		if l.util[i] != nil {
			jv.Utility = l.util[i].Curve(jv.Utility)
		}
	}
	if l.mon >= 0 {
		l.samples = append(l.samples, perfmon.Sample{
			Seconds: now, MPKI: l.snap.Jobs[l.mon].MPKI, Ways: l.WaysOf(l.mon),
		})
	}
	l.apply(l.pol.Decide(&l.snap))
}

// trace summarizes the loop's activity for the run's Result.
func (l *Loop) trace() *machine.PartitionTrace {
	fw := make([]int, len(l.jobs))
	for i := range fw {
		fw[i] = l.WaysOf(i)
	}
	return &machine.PartitionTrace{
		Policy:        l.pol.Name(),
		Reallocations: l.reallocs,
		FinalWays:     fw,
	}
}

// WaysOf returns job i's current allocation in ways (the full
// associativity when unrestricted).
func (l *Loop) WaysOf(i int) int {
	if l.cur[i] == 0 {
		return l.assoc
	}
	return l.cur[i].Count()
}

// Reallocations returns how many decision points changed the applied
// allocation (including the initial grant when it differed from the
// power-on full-cache state).
func (l *Loop) Reallocations() int { return l.reallocs }

// Samples returns the monitored job's recorded MPKI/allocation series.
func (l *Loop) Samples() []perfmon.Sample { return l.samples }
