package scenario

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/workload"
)

const testScale = 3e-4

// fourJobJSON is the canonical acceptance mix: one latency-sensitive
// foreground plus three batch co-runners.
const fourJobJSON = `{
  "name": "test-1lat-3batch",
  "partition": {"policy": "shared"},
  "jobs": [
    {"app": "429.mcf", "role": "latency", "threads": 2},
    {"app": "ferret", "role": "batch", "threads": 2},
    {"app": "dedup", "role": "batch", "threads": 2},
    {"app": "canneal", "role": "batch", "threads": 2}
  ]
}`

func TestParseRejectsBadScenarios(t *testing.T) {
	cases := []struct {
		name, js, want string
	}{
		{"unknown field", `{"name":"x","jbos":[]}`, "unknown field"},
		{"no jobs", `{"name":"x","jobs":[]}`, "no jobs"},
		{"unknown app", `{"name":"x","jobs":[{"app":"nope"}]}`, "unknown application"},
		{"unknown role", `{"name":"x","jobs":[{"app":"ferret","role":"demon"}]}`, "unknown role"},
		{"all looping", `{"name":"x","jobs":[{"app":"ferret","role":"batch"}]}`, "must terminate"},
		{"looping latency", `{"name":"x","jobs":[{"app":"ferret","role":"latency","loop":true}]}`, "cannot loop"},
		{"bad policy", `{"name":"x","partition":{"policy":"magic"},"jobs":[{"app":"ferret","role":"latency"}]}`, "unknown partition policy"},
		{"biased needs latency", `{"name":"x","partition":{"policy":"biased"},"jobs":[{"app":"ferret","role":"batch","loop":false}]}`, "exactly one latency"},
		{"ways without explicit", `{"name":"x","jobs":[{"app":"ferret","role":"latency","ways":[0,6]}]}`, "explicit partition policy"},
		{"zero way range", `{"name":"x","partition":{"policy":"explicit"},"jobs":[{"app":"ferret","role":"latency","ways":[0,0]}]}`, "invalid"},
		{"bad metric", `{"name":"x","metrics":["vibes"],"jobs":[{"app":"ferret","role":"latency"}]}`, "unknown metric"},
		{"bad placement", `{"name":"x","placement":{"policy":"teleport"},"jobs":[{"app":"ferret","role":"latency"}]}`, "unknown placement"},
		{"slots without explicit", `{"name":"x","jobs":[{"app":"ferret","role":"latency","slots":[4,5]}]}`, "explicit placement policy"},
		{"bad seed", `{"name":"x","jobs":[{"app":"ferret","role":"latency","seed":"fg|evil"}]}`, "may only contain"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.js))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want substring %q", c.name, err, c.want)
		}
	}
}

// TestCompileMatchesPairSpec: the §5 pair expressed as a scenario must
// reduce to the exact memo entry the legacy PairSpec produces — same
// placement, seeds, threads, and way split — so scenario-expressed
// drivers dedup perfectly against the historical shapes.
func TestCompileMatchesPairSpec(t *testing.T) {
	r := sched.New(sched.Options{Scale: testScale})
	fg := workload.MustByName("429.mcf")
	bg := workload.MustByName("ferret")

	s := &Scenario{
		Name:      "pair",
		Partition: PartitionDef{Policy: PolicyRef{Name: PartitionExplicit}},
		Jobs: []JobDef{
			{App: fg.Name, Role: RoleLatency, Threads: 4, Ways: &[2]int{0, 8}},
			{App: bg.Name, Role: RoleBatch, Threads: 4, Ways: &[2]int{8, 12}},
		},
	}
	mix, err := s.Compile(machine.Default())
	if err != nil {
		t.Fatal(err)
	}
	pair := sched.PairSpec{Fg: fg, Bg: bg, FgWays: 8, BgWays: 4, Mode: sched.BackgroundLoop}
	if r.RunMix(mix) != r.Run(pair) {
		t.Fatal("scenario pair and PairSpec did not share a memo entry")
	}
}

// TestKeyDeterministic: JSON parse → compile → memo key must be a pure
// function of the file contents.
func TestKeyDeterministic(t *testing.T) {
	r := sched.New(sched.Options{Scale: testScale})
	var keys []string
	for i := 0; i < 3; i++ {
		s, err := Parse([]byte(fourJobJSON))
		if err != nil {
			t.Fatal(err)
		}
		mix, err := s.Compile(machine.Default())
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, mix.Key(r))
	}
	if keys[0] == "" {
		t.Fatal("static scenario not memoizable")
	}
	if keys[1] != keys[0] || keys[2] != keys[0] {
		t.Fatalf("memo key unstable across parses:\n%s\n%s\n%s", keys[0], keys[1], keys[2])
	}
}

// TestRunAllPolicies: the acceptance mix must execute under every
// drop-in partition policy with sane per-role outcomes.
func TestRunAllPolicies(t *testing.T) {
	for _, pol := range PartitionPolicies() {
		s, err := Parse([]byte(fourJobJSON))
		if err != nil {
			t.Fatal(err)
		}
		s.Partition.Policy = PolicyRef{Name: pol}
		r := sched.New(sched.Options{Scale: testScale})
		rep, err := Run(r, s, 0)
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if len(rep.Jobs) != 4 {
			t.Fatalf("%s: %d job outcomes", pol, len(rep.Jobs))
		}
		fg := rep.Jobs[0]
		if fg.Role != RoleLatency || fg.Loop || fg.Slowdown <= 0 {
			t.Fatalf("%s: latency outcome %+v", pol, fg)
		}
		for _, o := range rep.Jobs[1:] {
			if !o.Loop || o.Throughput <= 0 {
				t.Fatalf("%s: batch outcome %+v", pol, o)
			}
		}
		if pol == PartitionBiased && (rep.LatencyWays < 1 || rep.LatencyWays > 11) {
			t.Fatalf("biased chose %d ways", rep.LatencyWays)
		}
		if pol == PartitionDynamic && rep.LatencyWays < 1 {
			t.Fatalf("dynamic final ways %d", rep.LatencyWays)
		}
		if pol == PartitionUtility && len(rep.FinalWays) != 4 {
			t.Fatalf("utility final ways %v", rep.FinalWays)
		}
		if out := rep.String(); !strings.Contains(out, pol) {
			t.Fatalf("%s: report does not name its policy:\n%s", pol, out)
		}
	}
}

// TestPolicyParamsRoundTrip: a parameterized policy block survives
// JSON parse → registry resolution → engine memo key → re-marshal,
// and distinct parameterizations never share a memo key.
func TestPolicyParamsRoundTrip(t *testing.T) {
	js := `{
  "name": "util-params",
  "partition": {"policy": {"name": "utility", "params": {"min_ways": 2, "sample_shift": 4}}},
  "jobs": [
    {"app": "429.mcf", "role": "latency", "threads": 2},
    {"app": "ferret", "role": "batch", "threads": 2}
  ]
}`
	s, err := Parse([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	pol, err := s.Policy()
	if err != nil {
		t.Fatal(err)
	}
	if pol.Name() != "utility" || pol.KeyParams() != "min=2,ss=4,d=0.5" {
		t.Fatalf("resolved policy %s{%s}", pol.Name(), pol.KeyParams())
	}

	r := sched.New(sched.Options{Scale: testScale})
	key := func(s *Scenario) string {
		mix, err := s.CompileOnline(machine.Default(), r.Scale(), nil)
		if err != nil {
			t.Fatal(err)
		}
		k := mix.Key(r)
		if k == "" {
			t.Fatal("online-policy mix not memoizable")
		}
		return k
	}
	k1 := key(s)
	if !strings.Contains(k1, "min=2,ss=4,d=0.5") {
		t.Errorf("memo key %q does not carry the policy params", k1)
	}

	// Re-marshal and re-parse: the params (and therefore the key) must
	// survive, so scenario files are the policy's canonical identity.
	out, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Parse(out)
	if err != nil {
		t.Fatalf("re-parse of marshaled scenario: %v\n%s", err, out)
	}
	if k2 := key(s2); k2 != k1 {
		t.Errorf("memo key changed across JSON round trip:\n%s\n%s", k1, k2)
	}

	// Defaults are a different configuration: different key.
	s3, err := Parse([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	s3.Partition.Policy = PolicyRef{Name: "utility"}
	if k3 := key(s3); k3 == k1 {
		t.Error("default and custom utility params share a memo key")
	}

	// The legacy string alias still parses and re-marshals compactly.
	var ref PolicyRef
	if err := json.Unmarshal([]byte(`"dynamic"`), &ref); err != nil || ref.Name != "dynamic" {
		t.Fatalf("string alias: %v, %+v", err, ref)
	}
	if b, _ := json.Marshal(ref); string(b) != `"dynamic"` {
		t.Errorf("parameterless ref marshals as %s, want the string alias", b)
	}
}

// TestOnlineKeyEncodesRoles: two online-policy scenarios identical in
// every mix field (apps, threads, placement, explicit seeds, loop
// flags) but with the latency role on different jobs monitor
// differently, so their memo keys must differ — or a shared runner or
// cache directory would serve one the other's result.
func TestOnlineKeyEncodesRoles(t *testing.T) {
	r := sched.New(sched.Options{Scale: testScale})
	build := func(latencyFirst bool) string {
		roleA, roleB := RoleLatency, RoleBatch
		if !latencyFirst {
			roleA, roleB = RoleBatch, RoleLatency
		}
		noLoop := false
		s := &Scenario{
			Name:      "roles",
			Partition: PartitionDef{Policy: PolicyRef{Name: PartitionDynamic}},
			Jobs: []JobDef{
				{App: "429.mcf", Role: roleA, Threads: 2, Seed: "s1", Loop: loopFor(roleA, &noLoop)},
				{App: "429.mcf", Role: roleB, Threads: 2, Seed: "s2", Loop: loopFor(roleB, &noLoop)},
			},
		}
		mix, err := s.CompileOnline(machine.Default(), r.Scale(), nil)
		if err != nil {
			t.Fatal(err)
		}
		key := mix.Key(r)
		if key == "" {
			t.Fatal("online mix not memoizable")
		}
		return key
	}
	if k1, k2 := build(true), build(false); k1 == k2 {
		t.Fatalf("role-swapped scenarios share memo key:\n%s", k1)
	}
}

// loopFor gives batch jobs an explicit loop:false so role-swapped
// variants keep identical Background flags (latency never loops).
func loopFor(r Role, noLoop *bool) *bool {
	if r == RoleBatch {
		return noLoop
	}
	return nil
}

// TestRunByteIdenticalAcrossParallelism extends the engine's
// determinism guarantee to scenario runs: serial and 8-way rendering
// must agree byte for byte, for a static and an engine-driven policy.
func TestRunByteIdenticalAcrossParallelism(t *testing.T) {
	render := func(parallelism int, pol string) string {
		s, err := Parse([]byte(fourJobJSON))
		if err != nil {
			t.Fatal(err)
		}
		s.Partition.Policy = PolicyRef{Name: pol}
		r := sched.New(sched.Options{Scale: testScale, Parallelism: parallelism})
		rep, err := Run(r, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	for _, pol := range []string{PartitionFair, PartitionBiased, PartitionDynamic, PartitionUtility} {
		serial, parallel := render(1, pol), render(8, pol)
		if serial != parallel {
			t.Errorf("%s: parallel run diverged from serial\n--- serial ---\n%s\n--- parallel ---\n%s",
				pol, serial, parallel)
		}
	}
}

// TestMachineOverrideAndOverSubscription: a 10-job mix on a declared
// 12-core platform places every job, shrinking grants where demand
// exceeds the machine.
func TestMachineOverrideAndOverSubscription(t *testing.T) {
	s := &Scenario{
		Name:    "big",
		Machine: MachineDef{Cores: 12},
		Jobs: []JobDef{
			{App: "429.mcf", Role: RoleLatency, Threads: 4},
			{App: "ferret", Role: RoleBatch, Threads: 4, Count: 5},
			{App: "dedup", Role: RoleBatch, Threads: 4, Count: 4},
		},
	}
	p, err := s.Plan(machine.Default())
	if err != nil {
		t.Fatal(err)
	}
	if p.Config.Cores != 12 {
		t.Fatalf("override config: %d cores", p.Config.Cores)
	}
	// The compiled mix names its platform itself.
	mix, err := s.Compile(machine.Default())
	if err != nil {
		t.Fatal(err)
	}
	if mix.Machine == nil || mix.Machine.Cores != 12 {
		t.Fatalf("compiled mix platform %v, want the 12-core machine", mix.Machine)
	}
	if len(p.Instances) != 10 {
		t.Fatalf("%d instances", len(p.Instances))
	}
	used := map[int]bool{}
	for _, inst := range p.Instances {
		if len(inst.Slots) == 0 || inst.Threads < 1 {
			t.Fatalf("instance got nothing: %+v", inst)
		}
		for _, sl := range inst.Slots {
			if used[sl] {
				t.Fatalf("slot %d double-booked", sl)
			}
			used[sl] = true
		}
	}
	// 10 jobs × 2-core demand = 20 cores on a 12-core machine: the
	// placement must have shrunk someone.
	if len(used) > 24 {
		t.Fatalf("%d slots used on a 24-slot machine", len(used))
	}

	r := sched.New(sched.Options{Scale: testScale})
	rep, err := Run(r, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cores != 12 || len(rep.Jobs) != 10 {
		t.Fatalf("report: %d cores, %d jobs", rep.Cores, len(rep.Jobs))
	}
}

// TestSeedConventions: replicas and roles get the engine's seed names.
func TestSeedConventions(t *testing.T) {
	s := &Scenario{
		Name: "seeds",
		Jobs: []JobDef{
			{App: "429.mcf", Role: RoleLatency},
			{App: "ferret", Role: RoleBatch, Count: 2},
			{App: "dedup", Role: RoleStream},
		},
	}
	p, err := s.Plan(machine.Default())
	if err != nil {
		t.Fatal(err)
	}
	got := []string{}
	for _, inst := range p.Instances {
		got = append(got, inst.Seed)
	}
	want := []string{"fg", "bg0", "bg1", "bg2"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seeds = %v, want %v", got, want)
		}
	}

	lone := &Scenario{Name: "lone", Jobs: []JobDef{{App: "ferret", Role: RoleLatency}}}
	p, err = lone.Plan(machine.Default())
	if err != nil {
		t.Fatal(err)
	}
	if p.Instances[0].Seed != "single" {
		t.Fatalf("lone seed = %q", p.Instances[0].Seed)
	}
}

func TestFleetScenarioParsing(t *testing.T) {
	good := `{
  "name": "fleet-ok",
  "fleet": {
    "machines": 4, "duration": 0.1,
    "arrivals": [{"app": "xalan", "rate": 100}],
    "backlog": [{"app": "ferret", "count": 2, "iterations": 10}]
  }
}`
	s, err := Parse([]byte(good))
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsFleet() {
		t.Fatal("fleet block not detected")
	}
	// Fleet scenarios stay out of the single-machine pipeline.
	if _, err := s.Plan(machine.Default()); err == nil || !strings.Contains(err.Error(), "fleet") {
		t.Errorf("Plan on a fleet scenario: err %v, want fleet redirect", err)
	}
	if _, err := s.Compile(machine.Default()); err == nil {
		t.Error("Compile accepted a fleet scenario")
	}

	bad := []struct {
		name, js, want string
	}{
		{"fleet with jobs", `{"name":"x","fleet":{"machines":1,"duration":1,"arrivals":[{"app":"xalan","rate":1}]},"jobs":[{"app":"ferret","role":"latency"}]}`, "not jobs"},
		{"fleet with partition block", `{"name":"x","partition":{"policy":"fair"},"fleet":{"machines":1,"duration":1,"arrivals":[{"app":"xalan","rate":1}]}}`, "fleet block's policies"},
		{"fleet with metrics", `{"name":"x","metrics":["energy"],"fleet":{"machines":1,"duration":1,"arrivals":[{"app":"xalan","rate":1}]}}`, "metrics"},
		{"fleet with machine cores", `{"name":"x","machine":{"cores":8},"fleet":{"machines":1,"duration":1,"arrivals":[{"app":"xalan","rate":1}]}}`, "inside the fleet block"},
		{"fleet unknown app", `{"name":"x","fleet":{"machines":1,"duration":1,"arrivals":[{"app":"nope","rate":1}]}}`, "unknown application"},
		{"fleet no load", `{"name":"x","fleet":{"machines":1,"duration":1}}`, "nothing to run"},
		{"fleet bad policy", `{"name":"x","fleet":{"machines":1,"duration":1,"policies":["warp"],"arrivals":[{"app":"xalan","rate":1}]}}`, "unknown policy"},
		{"fleet unknown field", `{"name":"x","fleet":{"machines":1,"duration":1,"arivals":[]}}`, "unknown field"},
	}
	for _, c := range bad {
		_, err := Parse([]byte(c.js))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want substring %q", c.name, err, c.want)
		}
	}
}
