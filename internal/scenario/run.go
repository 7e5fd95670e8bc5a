package scenario

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/tabtext"
)

// JobOutcome is one instance's measured result.
type JobOutcome struct {
	Instance
	Seconds      float64
	Iterations   float64
	IPC, MPKI    float64
	AloneSeconds float64 // run-once jobs with a baseline, else 0
	Slowdown     float64 // Seconds / AloneSeconds, run-once jobs
	Throughput   float64 // iterations per window second, looping jobs
}

// Report is the outcome of one scenario run.
type Report struct {
	Scenario *Scenario
	Policy   string // partition policy name
	Cores    int
	Assoc    int // LLC associativity of the platform run on
	Jobs     []JobOutcome

	WindowSeconds   float64
	SocketJoules    float64
	WallJoules      float64
	ED2             float64 // socket energy × window² (energy-delay-squared)
	WeightedSpeedup float64 // Σ alone/together over run-once jobs
	TotalThroughput float64 // Σ looping-job throughput

	// LatencyWays is the latency job's allocation: the split the biased
	// search chose, or an online policy's final grant (0 without a
	// latency job).
	LatencyWays int
	// Reallocations/FinalWays summarize an online policy's decision
	// loop.
	Reallocations int
	FinalWays     []int
}

// Run executes a scenario on the runner under its declared partition
// policy: it plans the placement, batches the baselines the metrics
// block needs together with the partition plan's runs (for the biased
// policy, the whole split sweep) across the engine's workers, and
// assembles a deterministic report. Byte-identical output at any
// parallelism, like every other driver on the engine. Its spans nest
// under parent (0 = root); tracing changes nothing about the report.
func Run(r *sched.Runner, s *Scenario, parent obs.SpanID) (*Report, error) {
	tr := r.Tracer()
	t0 := time.Now()
	csp := tr.Start("compile", parent)
	p, err := s.plan(machine.Default(), r.Scale())
	csp.End()
	r.AddPhase("compile", time.Since(t0))
	if err != nil {
		return nil, err
	}
	rep := &Report{Scenario: s, Policy: s.PartitionName(), Cores: p.Config.Cores,
		Assoc: p.Config.Hier.LLC.Assoc}

	// Baselines: one alone run per terminating job when a normalizing
	// metric is requested.
	needAlone := s.wantMetric(MetricSlowdown) || s.wantMetric(MetricWeightedSpeedup)
	var aloneIdx []int
	var specs []sched.Spec
	if needAlone {
		for i, inst := range p.Instances {
			if !inst.Loop {
				aloneIdx = append(aloneIdx, i)
				specs = append(specs, p.aloneMix(i))
			}
		}
	}
	// The biased search normalizes by the latency job's alone baseline
	// even when no normalizing metric was requested.
	latAloneAt := -1
	if fg := p.pricing.AloneJob(); fg >= 0 {
		for k, i := range aloneIdx {
			if i == fg {
				latAloneAt = k
			}
		}
		if latAloneAt < 0 {
			latAloneAt = len(specs)
			specs = append(specs, p.aloneMix(fg))
		}
	}
	planAt := len(specs)
	specs = append(specs, p.pricing.Specs()...)
	results := r.RunBatchIn(sched.BatchInfo{Span: parent, Phase: "scenario"}, specs)

	var latAlone float64
	if latAloneAt >= 0 {
		latAlone = results[latAloneAt].Jobs[0].Seconds
	}
	out := p.pricing.Harvest(results[planAt:], latAlone)
	rep.LatencyWays = out.LatencyWays
	rep.Reallocations, rep.FinalWays = out.Reallocations, out.FinalWays
	assembleJobs(rep, p, out.Ranges, out.Main, results, aloneIdx)

	main := out.Main
	rep.WindowSeconds = main.WindowSeconds
	rep.SocketJoules = main.Energy.SocketJoules
	rep.WallJoules = main.Energy.WallJoules
	rep.ED2 = main.Energy.SocketJoules * main.WindowSeconds * main.WindowSeconds
	return rep, nil
}

// assembleJobs fills the per-instance outcomes and the aggregate
// metrics from the main run, the way ranges it ran at, and the alone
// baselines.
func assembleJobs(rep *Report, p *Plan, ways [][2]int, main *machine.Result, results []*machine.Result, aloneIdx []int) {
	aloneAt := map[int]int{}
	for k, i := range aloneIdx {
		aloneAt[i] = k
	}
	for i, inst := range p.Instances {
		inst.WayFirst, inst.WayLim = ways[i][0], ways[i][1]
		jr := main.Jobs[i]
		out := JobOutcome{
			Instance:   inst,
			Seconds:    jr.Seconds,
			Iterations: jr.Iterations,
			IPC:        jr.IPC,
			MPKI:       jr.LLCMPKI,
		}
		if inst.Loop {
			if main.WindowSeconds > 0 {
				out.Throughput = jr.Iterations / main.WindowSeconds
			}
			rep.TotalThroughput += out.Throughput
		} else if k, ok := aloneAt[i]; ok {
			out.AloneSeconds = results[k].Jobs[0].Seconds
			out.Slowdown = out.Seconds / out.AloneSeconds
			rep.WeightedSpeedup += out.AloneSeconds / out.Seconds
		}
		rep.Jobs = append(rep.Jobs, out)
	}
}

// slotRanges compresses a slot list into "a-b,c" run notation.
func slotRanges(slots []int) string {
	if len(slots) == 0 {
		return "-"
	}
	sorted := append([]int(nil), slots...)
	sort.Ints(sorted)
	var sb strings.Builder
	for i := 0; i < len(sorted); {
		j := i
		for j+1 < len(sorted) && sorted[j+1] == sorted[j]+1 {
			j++
		}
		if sb.Len() > 0 {
			sb.WriteByte(',')
		}
		if j > i {
			fmt.Fprintf(&sb, "%d-%d", sorted[i], sorted[j])
		} else {
			fmt.Fprintf(&sb, "%d", sorted[i])
		}
		i = j + 1
	}
	return sb.String()
}

// String renders the report as aligned text, shaped by the scenario's
// metrics block. Output is deterministic: byte-identical across
// engine parallelism settings.
func (r *Report) String() string {
	s := r.Scenario
	var sb strings.Builder
	fmt.Fprintf(&sb, "== scenario: %s (policy %s, %d cores) ==\n", s.Name, r.Policy, r.Cores)
	if s.Description != "" {
		fmt.Fprintf(&sb, "%s\n", s.Description)
	}

	cols := []string{"job", "role", "app", "thr", "slots", "ways", "time(s)"}
	if s.wantMetric(MetricSlowdown) {
		cols = append(cols, "slowdown")
	}
	if s.wantMetric(MetricThroughput) {
		cols = append(cols, "iters", "iters/s")
	}
	cols = append(cols, "IPC", "MPKI")

	rows := [][]string{cols}
	for _, o := range r.Jobs {
		row := []string{o.Seed, string(o.Role), o.App.Name,
			fmt.Sprintf("%d", o.Threads), slotRanges(o.Slots), o.WaysLabel(),
			fmt.Sprintf("%.4f", o.Seconds)}
		if s.wantMetric(MetricSlowdown) {
			if o.Loop {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.3f", o.Slowdown))
			}
		}
		if s.wantMetric(MetricThroughput) {
			if o.Loop {
				row = append(row, fmt.Sprintf("%.2f", o.Iterations), fmt.Sprintf("%.2f", o.Throughput))
			} else {
				row = append(row, "-", "-")
			}
		}
		row = append(row, fmt.Sprintf("%.2f", o.IPC), fmt.Sprintf("%.2f", o.MPKI))
		rows = append(rows, row)
	}
	tabtext.WriteAligned(&sb, rows)

	fmt.Fprintf(&sb, "window %.4f s\n", r.WindowSeconds)
	if s.wantMetric(MetricWeightedSpeedup) {
		n := 0
		for _, o := range r.Jobs {
			if !o.Loop {
				n++
			}
		}
		fmt.Fprintf(&sb, "weighted speedup %.3f over %d run-once jobs\n", r.WeightedSpeedup, n)
	}
	if s.wantMetric(MetricThroughput) && r.TotalThroughput > 0 {
		fmt.Fprintf(&sb, "total looping throughput %.2f iters/s\n", r.TotalThroughput)
	}
	if s.wantMetric(MetricEnergy) {
		fmt.Fprintf(&sb, "energy %.2f J socket, %.2f J wall\n", r.SocketJoules, r.WallJoules)
	}
	if s.wantMetric(MetricED2) {
		fmt.Fprintf(&sb, "ED2 %.4g J*s^2 (socket)\n", r.ED2)
	}
	switch {
	case r.Policy == PartitionBiased:
		fmt.Fprintf(&sb, "biased search: latency job granted %d of %d ways\n",
			r.LatencyWays, r.Assoc)
	case r.Policy == PartitionDynamic:
		fmt.Fprintf(&sb, "dynamic controller: %d reallocations, final latency allocation %d ways\n",
			r.Reallocations, r.LatencyWays)
	case len(r.FinalWays) > 0: // other online policies (utility, ...)
		parts := make([]string, len(r.FinalWays))
		for i, w := range r.FinalWays {
			parts[i] = fmt.Sprintf("%d", w)
		}
		fmt.Fprintf(&sb, "%s policy: %d reallocations, final allocation %s of %d ways\n",
			r.Policy, r.Reallocations, strings.Join(parts, "/"), r.Assoc)
	}
	return sb.String()
}
