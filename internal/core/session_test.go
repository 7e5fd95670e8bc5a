package core

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/sched"
)

const sessScenario = `{
  "name": "sess-mix",
  "jobs": [
    {"app": "429.mcf", "role": "latency", "threads": 2},
    {"app": "ferret", "role": "batch", "threads": 2}
  ]
}`

const sessFleet = `{
  "name": "sess-fleet",
  "description": "two machines, tiny trace",
  "fleet": {
    "machines": 2, "duration": 0.02, "seed": "sess",
    "arrivals": [{"app": "xalan", "rate": 150}],
    "backlog": [{"app": "ferret", "count": 2, "iterations": 10}]
  }
}`

func quickSession(t *testing.T) *Session {
	t.Helper()
	s, err := NewSession(RunConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunConfigValidate(t *testing.T) {
	bad := []RunConfig{
		{Scale: -1},
		{Parallelism: -2},
		{Machines: -1},
		{Policies: []string{"shared", " "}},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		} else if strings.ContainsRune(err.Error(), '\n') {
			t.Errorf("error is not one line: %q", err)
		}
	}
	if err := (RunConfig{Quick: true, Parallelism: 4}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	// An unusable cache dir is a graceful error, not a panic.
	if _, err := NewSession(RunConfig{CacheDir: string([]byte{0})}); err == nil {
		t.Error("unusable cache dir accepted")
	}
}

func TestRunConfigEffectiveScale(t *testing.T) {
	if got := (RunConfig{}).EffectiveScale(); got != 0 {
		t.Errorf("zero config scale = %g", got)
	}
	if got := (RunConfig{Quick: true}).EffectiveScale(); got != sched.QuickScale {
		t.Errorf("quick scale = %g, want %g", got, sched.QuickScale)
	}
	if got := (RunConfig{Quick: true, Scale: 0.5}).EffectiveScale(); got != 0.5 {
		t.Errorf("explicit scale = %g, want 0.5", got)
	}
}

func TestRunConfigPerRunOnly(t *testing.T) {
	for _, cfg := range []RunConfig{
		{Scale: 0.1}, {Quick: true}, {Parallelism: 2}, {CacheDir: "x"},
	} {
		if err := cfg.PerRunOnly(); err == nil {
			t.Errorf("engine field in %+v not rejected", cfg)
		}
	}
	ok := RunConfig{Policy: "dynamic", Partition: "utility",
		Policies: []string{"pack-partition"}, Machines: 3}
	if err := ok.PerRunOnly(); err != nil {
		t.Errorf("per-run fields rejected: %v", err)
	}
}

// TestSessionScenarioEnvelope pins the envelope contract for a
// single-machine run: versioned header, kind, and a report that is
// byte-identical to driving scenario.Run directly — what the CLI
// printed before the session existed.
func TestSessionScenarioEnvelope(t *testing.T) {
	sess := quickSession(t)
	sc, err := scenario.Parse([]byte(sessScenario))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.RunScenario(sc, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	env := res.Envelope
	if env.SchemaVersion != SchemaVersion || env.EngineVersion != sched.EngineVersion {
		t.Fatalf("envelope header: %+v", env)
	}
	if env.Kind != KindScenario || env.Name != "sess-mix" {
		t.Fatalf("envelope identity: %+v", env)
	}
	if env.Stats.Simulations == 0 || env.Stats.Simulations != res.After.Simulations-res.Before.Simulations {
		t.Fatalf("envelope stats: %+v", env.Stats)
	}

	direct, err := scenario.Parse([]byte(sessScenario))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := scenario.Run(sched.New(sched.Options{Scale: sched.QuickScale}), direct, 0)
	if err != nil {
		t.Fatal(err)
	}
	if env.Report != rep.String() {
		t.Errorf("session report drifted from scenario.Run\n--- session ---\n%s\n--- direct ---\n%s",
			env.Report, rep.String())
	}
}

// TestSessionFleetEnvelope: fleet runs report kind "fleet" and lead
// with the description line, exactly as the fleet CLI prints.
func TestSessionFleetEnvelope(t *testing.T) {
	sess := quickSession(t)
	sc, err := scenario.Parse([]byte(sessFleet))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.RunScenario(sc, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	env := res.Envelope
	if env.Kind != KindFleet {
		t.Fatalf("kind %q", env.Kind)
	}
	if !strings.HasPrefix(env.Report, "two machines, tiny trace\n== fleet: sess-fleet ") {
		t.Errorf("fleet report does not lead with the description:\n%s", env.Report)
	}

	// A second run on the warm session is all memo hits.
	sc2, _ := scenario.Parse([]byte(sessFleet))
	res2, err := sess.RunScenario(sc2, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Envelope.Stats.Simulations != 0 || res2.Envelope.Stats.MemoHits == 0 {
		t.Errorf("warm run stats: %+v", res2.Envelope.Stats)
	}
	if res2.Envelope.Report != env.Report {
		t.Error("warm report drifted from cold report")
	}
}

// TestSessionDiskStoreRoundTrip: a fresh session pointed at the same
// cache dir serves the whole run from disk with identical report bytes.
func TestSessionDiskStoreRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	cold, err := NewSession(RunConfig{Quick: true, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := scenario.Parse([]byte(sessFleet))
	coldRes, err := cold.RunScenario(sc, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := NewSession(RunConfig{Quick: true, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sc2, _ := scenario.Parse([]byte(sessFleet))
	warmRes, err := warm.RunScenario(sc2, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	st := warmRes.Envelope.Stats
	if st.Simulations != 0 || st.DiskHits == 0 {
		t.Errorf("cross-process warm run stats: %+v", st)
	}
	if warmRes.Envelope.Report != coldRes.Envelope.Report {
		t.Error("disk-served report drifted")
	}
}

func TestEnvelopeJSONRoundTrip(t *testing.T) {
	sess := quickSession(t)
	res, err := sess.RunSpec([]byte(sessScenario), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	raw := res.Envelope.JSON()
	if raw[len(raw)-1] != '\n' {
		t.Error("canonical envelope JSON misses the trailing newline")
	}
	var back Envelope
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, *res.Envelope) {
		t.Errorf("round trip drifted: %+v vs %+v", back, *res.Envelope)
	}
}

func TestApplyOverrides(t *testing.T) {
	// Scenario: the policy override swaps the partition policy.
	sc, _ := scenario.Parse([]byte(sessScenario))
	if err := ApplyOverrides(sc, RunConfig{Policy: "dynamic"}); err != nil {
		t.Fatal(err)
	}
	if sc.PartitionName() != "dynamic" {
		t.Errorf("policy override not applied: %s", sc.PartitionName())
	}
	// Fleet-only overrides on a scenario are caller bugs.
	if err := ApplyOverrides(sc, RunConfig{Machines: 4}); err == nil {
		t.Error("machines override on a single-machine scenario accepted")
	}

	// Fleet: partition override clears the file's params and machines
	// swaps the pool size; both revalidate.
	fl, err := scenario.Parse([]byte(`{
	  "name": "ov",
	  "fleet": {
	    "machines": 2, "duration": 0.02, "seed": "ov",
	    "partition": "utility", "partition_params": {"min_ways": 2},
	    "arrivals": [{"app": "xalan", "rate": 100}]
	  }
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := ApplyOverrides(fl, RunConfig{Partition: "shared", Machines: 5}); err != nil {
		t.Fatal(err)
	}
	if fl.Fleet.Partition != fleet.PartitionMode("shared") || fl.Fleet.PartitionParams != nil || fl.Fleet.Machines != 5 {
		t.Errorf("fleet overrides not applied: %+v", fl.Fleet)
	}
	if err := ApplyOverrides(fl, RunConfig{Partition: "warp"}); err == nil ||
		!strings.Contains(err.Error(), "unknown partition mode") {
		t.Errorf("bad partition override: err %v", err)
	}
	if err := ApplyOverrides(fl, RunConfig{Policy: "dynamic"}); err == nil {
		t.Error("scenario-only policy override on a fleet accepted")
	}
	if err := ApplyOverrides(fl, RunConfig{Policies: []string{"warp"}}); err == nil ||
		!strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("bad policies override: err %v", err)
	}
}

func TestRunSpecParseErrorsMatchCLI(t *testing.T) {
	sess := quickSession(t)
	_, err := sess.RunSpec([]byte(`{"name": `), RunConfig{})
	if err == nil {
		t.Fatal("malformed spec accepted")
	}
	_, want := scenario.Parse([]byte(`{"name": `))
	if err.Error() != want.Error() {
		t.Errorf("session parse error %q diverges from scenario.Parse %q", err, want)
	}
	if strings.ContainsRune(err.Error(), '\n') {
		t.Errorf("error is not one line: %q", err)
	}
}
