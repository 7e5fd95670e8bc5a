package fleet

import (
	"math"
	"strings"
	"testing"

	"repro/internal/loadgen"
	"repro/internal/sched"
)

// testScale keeps fleet tests affordable; it is the CLI's -quick
// scale, so the golden file and the smoke runs agree by construction.
const testScale = sched.QuickScale

func testDef() *Def {
	return &Def{
		Machines: 6,
		Duration: 0.1,
		Seed:     "test",
		Arrivals: []loadgen.RequestClass{
			{App: "429.mcf", Rate: 300},
			{App: "xalan", Process: loadgen.ProcBursty, Rate: 500, BurstSeconds: 0.01},
		},
		Backlog: []loadgen.BatchDef{
			{App: "canneal", Count: 4, Iterations: 30},
			{App: "ferret", Count: 3, Iterations: 30},
		},
	}
}

func TestFleetParallelismByteIdentical(t *testing.T) {
	def := testDef()
	var outs []string
	for _, par := range []int{1, 8} {
		r := sched.New(sched.Options{Scale: testScale, Parallelism: par})
		rep, err := Run(r, "par-test", def, 0)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, rep.String())
	}
	if outs[0] != outs[1] {
		t.Errorf("fleet report differs between parallelism 1 and 8\n--- p1 ---\n%s\n--- p8 ---\n%s", outs[0], outs[1])
	}
}

func TestFleetDynamicParallelismByteIdentical(t *testing.T) {
	// The dynamic partition mode runs non-memoizable controller
	// episodes through the batch workers; their results must still be
	// order-independent.
	def := testDef()
	def.Partition = "dynamic"
	var outs []string
	for _, par := range []int{1, 8} {
		r := sched.New(sched.Options{Scale: testScale, Parallelism: par})
		rep, err := Run(r, "dyn-par-test", def, 0)
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, rep.String())
	}
	if outs[0] != outs[1] {
		t.Errorf("dynamic fleet report differs between parallelism 1 and 8\n--- p1 ---\n%s\n--- p8 ---\n%s", outs[0], outs[1])
	}
}

func TestFleetRunShape(t *testing.T) {
	r := sched.New(sched.Options{Scale: testScale})
	rep, err := Run(r, "shape", testDef(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("want 3 policy results, got %d", len(rep.Results))
	}
	byPol := map[PolicyName]PolicyResult{}
	for _, pr := range rep.Results {
		byPol[pr.Policy] = pr
		if pr.MachinesUsed < 1 || pr.MachinesUsed > 6 {
			t.Errorf("%s: machines used %d out of range", pr.Policy, pr.MachinesUsed)
		}
		if pr.P99 < pr.P95 || pr.P95 < pr.P50 || pr.P50 < 1-1e-9 {
			t.Errorf("%s: inconsistent percentiles p50=%v p95=%v p99=%v", pr.Policy, pr.P50, pr.P95, pr.P99)
		}
		if pr.Makespan <= 0 || pr.ActiveSocketJ <= 0 || pr.ED2 <= 0 {
			t.Errorf("%s: degenerate accounting %+v", pr.Policy, pr)
		}
		if pr.DrainSeconds <= 0 {
			t.Errorf("%s: backlog never drained", pr.Policy)
		}
		if pr.Utilization <= 0 || pr.Utilization > 1 {
			t.Errorf("%s: utilization %v out of range", pr.Policy, pr.Utilization)
		}
		if pr.FleetSocketJ < pr.ActiveSocketJ {
			t.Errorf("%s: fleet energy below active energy", pr.Policy)
		}
	}
	spread, pack := byPol[SpreadIdle], byPol[PackPartition]
	if spread.Colocated != 0 {
		t.Errorf("spread-idle co-located %d requests", spread.Colocated)
	}
	if pack.Colocated == 0 {
		t.Error("pack-partition never co-located")
	}
	if pack.MachinesUsed >= spread.MachinesUsed {
		t.Errorf("pack used %d machines, spread %d — consolidation failed",
			pack.MachinesUsed, spread.MachinesUsed)
	}
	if pack.ActiveSocketJ >= spread.ActiveSocketJ {
		t.Errorf("pack energy %.1f J not below spread %.1f J",
			pack.ActiveSocketJ, spread.ActiveSocketJ)
	}
}

func TestFleetSharedVsBiasedPartition(t *testing.T) {
	// Under the shared partition mode co-located requests run
	// unprotected; the biased mode's protective split must never make
	// the co-located tail worse than shared's for the same trace.
	def := &Def{
		Machines: 2,
		Duration: 0.05,
		Seed:     "modes",
		Policies: []PolicyName{UtilTarget}, // force co-location
		Arrivals: []loadgen.RequestClass{{App: "429.mcf", Rate: 150}},
		Backlog:  []loadgen.BatchDef{{App: "canneal", Count: 2, Iterations: 200}},
	}
	r := sched.New(sched.Options{Scale: testScale})
	biased, err := Run(r, "biased", def, 0)
	if err != nil {
		t.Fatal(err)
	}
	shared := *def
	shared.Partition = "shared"
	sharedRep, err := Run(r, "shared", &shared, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b, s := biased.Results[0].P99, sharedRep.Results[0].P99; b > s+1e-9 {
		t.Errorf("biased p99 %.4f worse than shared %.4f", b, s)
	}
}

func TestFleetValidation(t *testing.T) {
	bad := []*Def{
		{Machines: 0, Duration: 1, Arrivals: []loadgen.RequestClass{{App: "xalan", Rate: 1}}},
		{Machines: 1, Duration: 0, Arrivals: []loadgen.RequestClass{{App: "xalan", Rate: 1}}},
		{Machines: 1, Duration: 1},
		{Machines: 1, Duration: 1, Arrivals: []loadgen.RequestClass{{App: "nope", Rate: 1}}},
		{Machines: 1, Duration: 1, Arrivals: []loadgen.RequestClass{{App: "xalan", Rate: -1}}},
		{Machines: 1, Duration: 1, Cores: 3, Arrivals: []loadgen.RequestClass{{App: "xalan", Rate: 1}}},
		{Machines: 1, Duration: 1, Backlog: []loadgen.BatchDef{{App: "nope"}}},
		{Machines: 1, Duration: 1, SlowdownLimit: 0.5, Arrivals: []loadgen.RequestClass{{App: "xalan", Rate: 1}}},
		{Machines: 1, Duration: 1, UtilTarget: 2, Arrivals: []loadgen.RequestClass{{App: "xalan", Rate: 1}}},
		{Machines: 1, Duration: 1, Policies: []PolicyName{"warp"}, Arrivals: []loadgen.RequestClass{{App: "xalan", Rate: 1}}},
		{Machines: 1, Duration: 1, Policies: []PolicyName{SpreadIdle, SpreadIdle}, Arrivals: []loadgen.RequestClass{{App: "xalan", Rate: 1}}},
		{Machines: 1, Duration: 1, Partition: "warp", Arrivals: []loadgen.RequestClass{{App: "xalan", Rate: 1}}},
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, d)
		}
	}
	if err := testDef().Validate(); err != nil {
		t.Errorf("valid def rejected: %v", err)
	}
}

// TestFleetSizeLimits pins the bounds Validate puts on outside input:
// machines, expected arrivals and batch items past their limits are
// rejected with an error naming the limit, before anything is sized
// from them. Only Validate runs; no test runs a fleet this large.
func TestFleetSizeLimits(t *testing.T) {
	base := func() *Def {
		return &Def{Machines: 2, Duration: 1, Arrivals: []loadgen.RequestClass{{App: "xalan", Rate: 10}}}
	}
	cases := []struct {
		name string
		edit func(d *Def)
		want string // "" = valid
	}{
		{"machines at the limit", func(d *Def) { d.Machines = maxMachines }, ""},
		{"machines over", func(d *Def) { d.Machines = maxMachines + 1 }, "machines exceeds the limit of 100000"},
		{"machines from a request", func(d *Def) { d.Machines = 2_000_000_000 }, "machines exceeds the limit of 100000"},
		{"arrivals at the limit", func(d *Def) { d.Arrivals[0].Rate = maxArrivals }, ""},
		{"arrivals over", func(d *Def) {
			d.Arrivals = append(d.Arrivals, loadgen.RequestClass{App: "fop", Rate: maxArrivals})
		}, "expected arrivals (rate x duration at the peak load-scale) exceeds the limit of 1000000"},
		{"arrivals over at the peak load-scale", func(d *Def) {
			d.Arrivals[0].Rate = maxArrivals / 2
			d.Events = []Event{{At: 0.5, Kind: EvLoadScale, Factor: 3}, {At: 0.6, Kind: EvLoadScale, Factor: 1}}
		}, "exceeds the limit of 1000000"},
		{"backlog at the limit", func(d *Def) {
			d.Backlog = []loadgen.BatchDef{{App: "ferret", Count: maxBatchItems - 1}, {App: "dedup"}}
		}, ""},
		{"backlog over", func(d *Def) {
			d.Backlog = []loadgen.BatchDef{{App: "ferret", Count: maxBatchItems}, {App: "dedup"}}
		}, "backlog 1 (dedup) takes the batch items past the limit of 1000000"},
		{"backlog count that would overflow a sum", func(d *Def) {
			d.Backlog = []loadgen.BatchDef{{App: "ferret", Count: 1}, {App: "dedup", Count: math.MaxInt}}
		}, "backlog 1 (dedup) takes the batch items past the limit of 1000000"},
		{"batch-arrival over", func(d *Def) {
			d.Backlog = []loadgen.BatchDef{{App: "ferret", Count: maxBatchItems / 2}}
			d.Events = []Event{{At: 0.5, Kind: EvBatchArrival, App: "dedup", Count: maxBatchItems/2 + 1}}
		}, "event 0 (batch-arrival dedup) takes the batch items past the limit of 1000000"},
		{"bursts at the limit", func(d *Def) {
			d.Duration = 2_000_000
			d.Arrivals[0] = loadgen.RequestClass{App: "xalan", Process: loadgen.ProcBursty, Rate: 0.1, BurstFrac: 0.5, BurstSeconds: 1}
		}, ""},
		{"bursts too short", func(d *Def) {
			d.Arrivals[0].Process = loadgen.ProcBursty
			d.Arrivals[0].BurstSeconds = 1e-12
		}, "arrival class 0 (xalan): 1.5e+11 expected bursts (duration x burst_frac / burst_seconds) exceeds the limit of 1000000"},
		{"bursts of the default length", func(d *Def) { d.Arrivals[0].Process = loadgen.ProcBursty }, ""},
	}
	for _, c := range cases {
		d := base()
		c.edit(d)
		err := d.Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not say %q", c.name, err, c.want)
		}
	}
}

func TestFleetDescribe(t *testing.T) {
	out, err := Describe("d", testDef())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"6 machines", "429.mcf", "spread-idle, pack-partition, util-target"} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe output missing %q:\n%s", want, out)
		}
	}
}

func TestFleetBacklogOnly(t *testing.T) {
	// A pure drain fleet (no arrivals) must run and report drain time.
	def := &Def{
		Machines: 3,
		Duration: 0.05,
		Backlog:  []loadgen.BatchDef{{App: "ferret", Count: 6, Iterations: 20}},
	}
	r := sched.New(sched.Options{Scale: testScale})
	rep, err := Run(r, "drain-only", def, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range rep.Results {
		if pr.DrainSeconds <= 0 {
			t.Errorf("%s: no drain time", pr.Policy)
		}
		if pr.P99 != 0 {
			t.Errorf("%s: p99 %v with no requests", pr.Policy, pr.P99)
		}
	}
}

func TestSpreadNeverColocatesUnderLoad(t *testing.T) {
	// Saturate a 2-machine pool: one machine holds a long-lived batch
	// resident, the other takes every request. spread-idle must queue
	// behind the resident-free machine rather than co-locate — the
	// never-co-locate baseline holds under load, not just when idle
	// machines are plentiful.
	def := &Def{
		Machines:   2,
		Duration:   0.05,
		Seed:       "saturate",
		BatchWidth: 1,
		Policies:   []PolicyName{SpreadIdle},
		Arrivals:   []loadgen.RequestClass{{App: "429.mcf", Rate: 2000}},
		Backlog:    []loadgen.BatchDef{{App: "canneal", Count: 1, Iterations: 500}},
	}
	r := sched.New(sched.Options{Scale: testScale})
	rep, err := Run(r, "saturate", def, 0)
	if err != nil {
		t.Fatal(err)
	}
	pr := rep.Results[0]
	if pr.Colocated != 0 {
		t.Errorf("spread-idle co-located %d requests under saturation", pr.Colocated)
	}
	if pr.P99 <= 1 {
		t.Errorf("saturated pool shows no queueing (p99 %.3f)", pr.P99)
	}
}

// TestFleetRejectsExplicitPartition: fleet episodes declare no per-job
// way ranges, so the explicit policy cannot be expressed — it must be
// rejected by name rather than silently running as shared.
func TestFleetRejectsExplicitPartition(t *testing.T) {
	def := testDef()
	def.Partition = "explicit"
	err := def.Validate()
	if err == nil || !strings.Contains(err.Error(), "explicit needs per-job way ranges") {
		t.Fatalf("explicit partition mode: err %v", err)
	}
}

// TestFleetBadPolicyParamsErrorNotPanic: assoc-dependent param errors
// (utility min_ways too large for the 12-way LLC) pass name-level
// validation but must surface as a descriptive Run error once the
// platform is known — never a mid-run panic after simulation work.
func TestFleetBadPolicyParamsErrorNotPanic(t *testing.T) {
	def := testDef()
	def.Partition = "utility"
	def.PartitionParams = []byte(`{"min_ways": 7}`)
	if err := def.Validate(); err != nil {
		t.Fatalf("Validate cannot know the geometry yet: %v", err)
	}
	r := sched.New(sched.Options{Scale: testScale})
	_, err := Run(r, "bad-params", def, 0)
	if err == nil || !strings.Contains(err.Error(), "utility policy cannot give 2 jobs 7 way(s) each of 12") {
		t.Fatalf("bad params: err %v", err)
	}
}

// TestFleetBiasedRuleDefault: the fleet's biased mode keeps its
// protective foreground rule even when a params block is present but
// rule-less — only an explicit rule may override it.
func TestFleetBiasedRuleDefault(t *testing.T) {
	for _, params := range []string{"", "{}"} {
		def := testDef()
		def.Partition = "biased"
		if params != "" {
			def.PartitionParams = []byte(params)
		}
		p, err := def.policy()
		if err != nil {
			t.Fatalf("params %q: %v", params, err)
		}
		if p.KeyParams() != "rule=foreground" {
			t.Errorf("params %q: biased resolved as %s{%s}, want the protective rule",
				params, p.Name(), p.KeyParams())
		}
	}
	def := testDef()
	def.Partition = "biased"
	def.PartitionParams = []byte(`{"rule": "background"}`)
	p, err := def.policy()
	if err != nil {
		t.Fatal(err)
	}
	if p.KeyParams() != "" {
		t.Errorf("explicit background rule overridden: %s{%s}", p.Name(), p.KeyParams())
	}
}
