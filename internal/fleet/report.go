package fleet

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loadgen"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tabtext"
)

// PolicyResult aggregates one consolidation policy's run over the
// shared trace.
type PolicyResult struct {
	Policy       PolicyName
	MachinesUsed int // machines that ever hosted work
	Colocated    int // requests served beside a batch resident
	Rejects      int // arrivals the partition check spilled off batch residents
	P50, P95     float64
	P99          float64 // request slowdown percentiles (response / alone service)
	MeanSlowdown float64
	Utilization  float64 // busy machine-seconds / (machines used x makespan)
	DrainSeconds float64 // when the last backlog item finished (0 = no backlog)
	Makespan     float64 // last event in the run
	// ActiveSocketJ/ActiveWallJ price only the machines the policy
	// used (the rest powered off) — the consolidation saving.
	ActiveSocketJ float64
	ActiveWallJ   float64
	// FleetSocketJ prices the whole pool powered for the makespan.
	FleetSocketJ  float64
	ED2           float64 // active socket energy x makespan^2
	Reallocations int     // dynamic-mode controller reallocations, summed

	// Robustness metrics (all zero on an event-free run).
	Evicted        int     // jobs displaced by machine events
	Lost           int     // evictions that lost in-progress work
	Migrated       int     // evictions that kept their progress
	PeakReplace    int     // peak re-placement backlog
	RecoverSeconds float64 // worst event -> all-its-evictees-re-placed gap
	// SLOViolationMin is the summed job-minutes of response time above
	// the slowdown limit: sum over requests of
	// max(0, response - limit x alone) / 60.
	SLOViolationMin float64
}

// Report is the outcome of one fleet run: the trace, the platform,
// and one PolicyResult per policy over the identical arrivals.
type Report struct {
	Name     string
	Def      *Def
	Cores    int
	Assoc    int
	Requests int
	ByClass  []int // arrivals per request class
	Backlog  int
	Width    int // effective batch width
	// Fidelity is the oracle tier the pair numbers came from; under
	// fast/auto, PairsPredicted/PairsResimulated account for every
	// co-location (exact keeps both zero).
	Fidelity         Fidelity
	PairsPredicted   int
	PairsResimulated int
	Results          []PolicyResult
}

// RunOpts configures how a fleet run executes; the zero value is the
// default everywhere.
type RunOpts struct {
	// Parent is the trace span the fleet's spans nest under (0 = root).
	Parent obs.SpanID
	// PolicyParallel caps how many policy episodes replay concurrently
	// (0 = min(policies, GOMAXPROCS), 1 = serial). Episodes share only
	// the read-only oracle, so the report is byte-identical at any
	// setting.
	PolicyParallel int
}

// policyWorkers resolves the episode worker count for n policies.
func (o RunOpts) policyWorkers(n int) int {
	w := o.PolicyParallel
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	return w
}

// Run executes a fleet definition on the runner: it generates the
// trace, fans every needed single-machine simulation through the
// engine as one batch, then replays the identical trace under each
// consolidation policy. Output is deterministic and byte-identical at
// any engine parallelism.
func Run(r *sched.Runner, name string, def *Def) (*Report, error) {
	return RunWith(r, name, def, RunOpts{})
}

// RunSpan is Run with the trace span the fleet's spans nest under
// (0 = root).
func RunSpan(r *sched.Runner, name string, def *Def, parent obs.SpanID) (*Report, error) {
	return RunWith(r, name, def, RunOpts{Parent: parent})
}

// RunWith is Run with explicit options. The span tree a traced fleet
// run produces is:
//
//	compile                 trace generation
//	oracle                  performance-oracle construction
//	  oracle-batch            exact tier: one batch of every sim
//	  probe-batch             fast/auto: reduced probe runs
//	  predict                 fast/auto: analytic pair prediction
//	  resim-batch             auto: borderline exact re-simulation
//	episode (per policy)    trace replay under one policy
//
// Episodes run concurrently up to RunOpts.PolicyParallel; each opens
// its own span under Parent, and Report.Results keeps presentation
// order regardless of completion order. Tracing changes nothing about
// the report.
func RunWith(r *sched.Runner, name string, def *Def, opts RunOpts) (*Report, error) {
	if err := def.Validate(); err != nil {
		return nil, err
	}
	parent := opts.Parent
	tr := r.Tracer()
	t0 := time.Now()
	csp := tr.Start("compile", parent)
	arrivals, err := loadgen.ArrivalsScaled(def.Arrivals, def.Duration, def.seed(), def.scalePoints())
	if err != nil {
		csp.End()
		return nil, err
	}
	backlog, err := loadgen.Backlog(def.Backlog)
	if err != nil {
		csp.End()
		return nil, err
	}
	csp.End(obs.Int("requests", len(arrivals)), obs.Int("backlog", len(backlog)))
	r.AddPhase("compile", time.Since(t0))

	o, err := buildOracle(r, def, parent)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Name: name, Def: def,
		Cores: o.cfg.Cores, Assoc: o.cfg.Hier.LLC.Assoc,
		Requests: len(arrivals), ByClass: make([]int, len(def.Arrivals)),
		Backlog: len(backlog), Width: def.batchWidth(),
		Fidelity: o.fid, PairsPredicted: o.predicted, PairsResimulated: o.resimmed,
	}
	for _, a := range arrivals {
		rep.ByClass[a.Class]++
	}

	pols := def.policies()
	results := make([]PolicyResult, len(pols))
	errs := make([]error, len(pols))
	runOne := func(i int) {
		results[i], errs[i] = runEpisode(r, def, o, pols[i], arrivals, backlog, parent)
	}
	if workers := opts.policyWorkers(len(pols)); workers <= 1 {
		for i := range pols {
			runOne(i)
			if errs[i] != nil {
				return nil, errs[i]
			}
		}
	} else {
		// Episodes share only def/o/arrivals/backlog, all read-only past
		// this point, so each is an independent serial replay. A panic in
		// an episode (a sim bug) must surface on the calling goroutine as
		// it would serially, so workers capture the first one and the
		// caller re-raises it after the barrier — the same discipline as
		// the engine's batch workers.
		var next atomic.Int64
		var wg sync.WaitGroup
		var aborted atomic.Bool
		var panicOnce sync.Once
		var panicked any
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() {
					if p := recover(); p != nil {
						panicOnce.Do(func() { panicked = p })
						aborted.Store(true)
					}
				}()
				for !aborted.Load() {
					i := int(next.Add(1)) - 1
					if i >= len(pols) {
						return
					}
					runOne(i)
				}
			}()
		}
		wg.Wait()
		if panicked != nil {
			panic(panicked)
		}
		// Report the failure of the earliest policy in presentation
		// order — the same error a serial sweep would have stopped on.
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	rep.Results = results
	return rep, nil
}

// runEpisode replays the shared trace under one consolidation policy
// and aggregates its PolicyResult. Everything it reads — the
// definition, the oracle, the compiled arrivals and backlog — is
// immutable for the duration of the run, so concurrent episodes never
// share mutable state; the tracer and phase accounting are themselves
// concurrency-safe.
func runEpisode(r *sched.Runner, def *Def, o *oracle, pol PolicyName,
	arrivals []loadgen.Arrival, backlog []loadgen.BatchItem, parent obs.SpanID) (PolicyResult, error) {
	e0 := time.Now()
	esp := r.Tracer().Start("episode", parent, obs.String("policy", string(pol)))
	s := newSim(def, o, pol, arrivals, backlog)
	defer s.recycle()
	makespan := s.run()
	if s.nextItem < len(s.backlog) || s.requeuedLen() > 0 || s.drained != s.totalItems {
		esp.End()
		return PolicyResult{}, fmt.Errorf("fleet: policy %s stalled with %d of %d backlog items undrained",
			pol, s.totalItems-s.drained, s.totalItems)
	}
	pr := PolicyResult{
		Policy: pol, Rejects: s.rejects, Colocated: s.coloc,
		DrainSeconds: s.drainT, Makespan: makespan, Reallocations: s.reallocs,
		Evicted: s.evicted, Lost: s.lostJobs, Migrated: s.migrated,
		PeakReplace: s.peakRepl, RecoverSeconds: s.recoverMax,
	}
	limit := def.slowdownLimit()
	slow := make([]float64, 0, len(s.reqs))
	for i := range s.reqs {
		rq := &s.reqs[i]
		if !rq.done {
			esp.End()
			return PolicyResult{}, fmt.Errorf("fleet: policy %s left request %d unserved", pol, i)
		}
		resp := rq.finish - rq.arr.AtSeconds
		alone := o.alone[rq.app].Seconds
		slow = append(slow, resp/alone)
		if excess := resp - limit*alone; excess > 0 {
			pr.SLOViolationMin += excess / 60
		}
	}
	if len(slow) > 0 {
		pr.P50 = stats.Percentile(slow, 50)
		pr.P95 = stats.Percentile(slow, 95)
		pr.P99 = stats.Percentile(slow, 99)
		pr.MeanSlowdown = stats.Mean(slow)
	}
	if makespan > 0 {
		var busy float64
		for mi := range s.machines {
			s.account(mi, makespan)
			m := &s.machines[mi]
			busy += m.busySec
			if m.used {
				pr.MachinesUsed++
				pr.ActiveSocketJ += m.socketJ
				pr.ActiveWallJ += m.wallJ
			}
		}
		pr.FleetSocketJ = pr.ActiveSocketJ +
			o.idleSocketW*makespan*float64(def.Machines-pr.MachinesUsed)
		if pr.MachinesUsed > 0 {
			pr.Utilization = busy / (float64(pr.MachinesUsed) * makespan)
		}
		pr.ED2 = pr.ActiveSocketJ * makespan * makespan
	}
	esp.End(obs.Int("machines", pr.MachinesUsed), obs.Int("coloc", pr.Colocated))
	r.AddPhase("episode", time.Since(e0))
	return pr, nil
}

// String renders the report as aligned text; byte-identical across
// engine parallelism settings.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== fleet: %s (%d machines x %d cores, %d-way LLC) ==\n",
		r.Name, r.Def.Machines, r.Cores, r.Assoc)
	fmt.Fprintf(&sb, "trace: %d requests over %.2f s (", r.Requests, r.Def.Duration)
	for i, c := range r.Def.Arrivals {
		if i > 0 {
			sb.WriteString(", ")
		}
		proc := c.Process
		if proc == "" {
			proc = loadgen.ProcPoisson
		}
		fmt.Fprintf(&sb, "%s %s %g/s: %d", c.App, proc, c.Rate, r.ByClass[i])
	}
	if len(r.Def.Arrivals) == 0 {
		sb.WriteString("none")
	}
	fmt.Fprintf(&sb, "); backlog %d items, width %d; partition %s; seed %q\n",
		r.Backlog, r.Width, r.Def.partition(), r.Def.seed())
	if len(r.Def.Events) > 0 {
		c := r.Def.EventCounts()
		fmt.Fprintf(&sb, "events: %d (%d failures, %d drains, %d ups, %d batch-arrivals, %d batch-cancels, %d load-scales)",
			c.Total, c.Failures, c.Drains, c.Ups, c.BatchArrivals, c.BatchCancels, c.LoadScales)
		if r.Def.Hysteresis > 0 {
			fmt.Fprintf(&sb, "; hysteresis %gs", r.Def.Hysteresis)
		}
		sb.WriteByte('\n')
	}
	if r.Fidelity != "" && r.Fidelity != FidelityExact {
		if r.Fidelity == FidelityAuto {
			fmt.Fprintf(&sb, "fidelity: auto (model %s, margin %g); co-locations: %d predicted, %d re-simulated\n",
				model.Version, r.Def.fastMargin(), r.PairsPredicted, r.PairsResimulated)
		} else {
			fmt.Fprintf(&sb, "fidelity: fast (model %s); co-locations: %d predicted, %d re-simulated\n",
				model.Version, r.PairsPredicted, r.PairsResimulated)
		}
	}

	rows := [][]string{{"policy", "mach", "coloc", "rej", "p50", "p95", "p99",
		"util%", "drain(s)", "mksp(s)", "socket(J)", "ED2(Js^2)"}}
	for _, pr := range r.Results {
		rows = append(rows, []string{
			string(pr.Policy),
			fmt.Sprintf("%d", pr.MachinesUsed),
			fmt.Sprintf("%d", pr.Colocated),
			fmt.Sprintf("%d", pr.Rejects),
			fmt.Sprintf("%.3f", pr.P50),
			fmt.Sprintf("%.3f", pr.P95),
			fmt.Sprintf("%.3f", pr.P99),
			fmt.Sprintf("%.1f", pr.Utilization*100),
			fmt.Sprintf("%.4f", pr.DrainSeconds),
			fmt.Sprintf("%.4f", pr.Makespan),
			fmt.Sprintf("%.1f", pr.ActiveSocketJ),
			fmt.Sprintf("%.4g", pr.ED2),
		})
	}
	tabtext.WriteAligned(&sb, rows)
	sb.WriteString("(mach = machines powered; socket/ED2 price those machines only;\n" +
		" p50/p95/p99 = request slowdown vs alone, queueing included)\n")
	if len(r.Def.Events) > 0 {
		rrows := [][]string{{"policy", "evict", "lost", "migr", "peakq", "recover(s)", "slo-viol(min)"}}
		for _, pr := range r.Results {
			rrows = append(rrows, []string{
				string(pr.Policy),
				fmt.Sprintf("%d", pr.Evicted),
				fmt.Sprintf("%d", pr.Lost),
				fmt.Sprintf("%d", pr.Migrated),
				fmt.Sprintf("%d", pr.PeakReplace),
				fmt.Sprintf("%.4f", pr.RecoverSeconds),
				fmt.Sprintf("%.4f", pr.SLOViolationMin),
			})
		}
		tabtext.WriteAligned(&sb, rrows)
		sb.WriteString("(evict = jobs displaced by machine events; recover = worst event-to-\n" +
			" all-re-placed gap; slo-viol = job-minutes above the slowdown limit)\n")
	}
	if pol, err := r.Def.policy(); err == nil && pol.Online() {
		label := string(r.Def.partition()) + " policy"
		if r.Def.partition() == PartDynamic {
			label = "dynamic controller"
		}
		for _, pr := range r.Results {
			fmt.Fprintf(&sb, "%s under %s: %d reallocations across %d co-located requests\n",
				label, pr.Policy, pr.Reallocations, pr.Colocated)
		}
	}
	return sb.String()
}

// Describe validates a definition and summarizes the load it would
// generate — the `fleet check` output. No simulations run.
func Describe(name string, def *Def) (string, error) {
	if err := def.Validate(); err != nil {
		return "", err
	}
	arrivals, err := loadgen.ArrivalsScaled(def.Arrivals, def.Duration, def.seed(), def.scalePoints())
	if err != nil {
		return "", err
	}
	backlog, err := loadgen.Backlog(def.Backlog)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: ok — %d machines, %d requests over %.2f s, backlog %d (width %d), partition %s\n",
		name, def.Machines, len(arrivals), def.Duration, len(backlog), def.batchWidth(), def.partition())
	if f := def.fidelity(); f != FidelityExact {
		if f == FidelityAuto {
			fmt.Fprintf(&sb, "  fidelity: auto (model %s, margin %g)\n", model.Version, def.fastMargin())
		} else {
			fmt.Fprintf(&sb, "  fidelity: fast (model %s)\n", model.Version)
		}
	}
	byClass := make([]int, len(def.Arrivals))
	for _, a := range arrivals {
		byClass[a.Class]++
	}
	for i := range def.Arrivals {
		c := &def.Arrivals[i]
		proc := c.Process
		if proc == "" {
			proc = loadgen.ProcPoisson
		}
		fmt.Fprintf(&sb, "  class %d: %-18s %-8s %6g req/s -> %d arrivals\n",
			i, c.App, proc, c.Rate, byClass[i])
	}
	for i, b := range def.Backlog {
		n := b.Count
		if n == 0 {
			n = 1
		}
		fmt.Fprintf(&sb, "  backlog %d: %-16s x%d\n", i, b.App, n)
	}
	for i, ev := range def.Events {
		switch ev.Kind {
		case EvMachineDown:
			label := "failure"
			if ev.Drain {
				label = "drain"
			}
			fmt.Fprintf(&sb, "  event %d: t=%-8g machine-down %d (%s)\n", i, ev.At, ev.Machine, label)
		case EvMachineUp:
			fmt.Fprintf(&sb, "  event %d: t=%-8g machine-up %d\n", i, ev.At, ev.Machine)
		case EvBatchArrival:
			n, iters := ev.Count, ev.Iterations
			if n == 0 {
				n = 1
			}
			if iters == 0 {
				iters = 1
			}
			fmt.Fprintf(&sb, "  event %d: t=%-8g batch-arrival %s x%d (iterations %d)\n", i, ev.At, ev.App, n, iters)
		case EvBatchCancel:
			n := ev.Count
			if n == 0 {
				n = 1
			}
			fmt.Fprintf(&sb, "  event %d: t=%-8g batch-cancel %s x%d\n", i, ev.At, ev.App, n)
		case EvLoadScale:
			fmt.Fprintf(&sb, "  event %d: t=%-8g load-scale x%g\n", i, ev.At, ev.Factor)
		}
	}
	if def.Hysteresis > 0 {
		fmt.Fprintf(&sb, "  hysteresis: %gs\n", def.Hysteresis)
	}
	fmt.Fprintf(&sb, "  policies: ")
	for i, p := range def.policies() {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(string(p))
	}
	sb.WriteByte('\n')
	return sb.String(), nil
}
