package fuzz

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// seeds is the committed corpus: a spread that covers both scenario
// kinds, every fidelity tier, and timelines with failures, drains,
// cancels, and load spikes (mirrored by files under
// testdata/fuzz/FuzzScenario for `go test -fuzz`).
var seeds = []uint64{0, 1, 2, 3, 5, 7, 11, 42, 99, 1234}

// checkSeed property-checks one generated scenario:
//
//  1. the generator only emits valid scenarios (masks valid, event
//     timelines causally ordered — Validate enforces both);
//  2. the JSON encoding round-trips through Parse byte-identically;
//  3. the run report is byte-identical at engine parallelism 1 vs 8;
//  4. the run report is byte-identical without a cache dir, with a
//     cold one, and with a warm one.
func checkSeed(t *testing.T, seed uint64) {
	sc := Generate(seed)
	if err := sc.Validate(); err != nil {
		t.Fatalf("seed %d: generated scenario invalid: %v", seed, err)
	}

	b1, err := json.Marshal(sc)
	if err != nil {
		t.Fatalf("seed %d: marshal: %v", seed, err)
	}
	sc2, err := scenario.Parse(b1)
	if err != nil {
		t.Fatalf("seed %d: re-parse: %v", seed, err)
	}
	b2, err := json.Marshal(sc2)
	if err != nil {
		t.Fatalf("seed %d: re-marshal: %v", seed, err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("seed %d: JSON round-trip changed the scenario:\n%s\nvs\n%s", seed, b1, b2)
	}

	report := func(cfg core.RunConfig) string {
		s, err := core.NewSession(cfg)
		if err != nil {
			t.Fatalf("seed %d: session: %v", seed, err)
		}
		res, err := s.RunScenario(Generate(seed), cfg)
		if err != nil {
			t.Fatalf("seed %d: run (parallelism %d, cache %q): %v",
				seed, cfg.Parallelism, cfg.CacheDir, err)
		}
		return res.Envelope.Report
	}

	base := report(core.RunConfig{Quick: true, Parallelism: 1})
	if wide := report(core.RunConfig{Quick: true, Parallelism: 8}); wide != base {
		t.Errorf("seed %d: report differs at parallelism 1 vs 8:\n%s\nvs\n%s", seed, base, wide)
	}
	dir := t.TempDir()
	if cold := report(core.RunConfig{Quick: true, Parallelism: 4, CacheDir: dir}); cold != base {
		t.Errorf("seed %d: report differs with a cold cache dir:\n%s\nvs\n%s", seed, base, cold)
	}
	if warm := report(core.RunConfig{Quick: true, Parallelism: 4, CacheDir: dir}); warm != base {
		t.Errorf("seed %d: report differs with a warm cache dir:\n%s\nvs\n%s", seed, base, warm)
	}
}

// FuzzScenario is the `go test -fuzz` harness; its seed corpus is
// committed under testdata/fuzz/FuzzScenario so the non-fuzzing run
// (and CI's fuzz-smoke job) starts from meaningful inputs.
func FuzzScenario(f *testing.F) {
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkSeed(t, seed)
	})
}

// TestFuzzSeeds runs the corpus as a plain test, so the properties are
// exercised by every `go test ./...` even without -fuzz.
func TestFuzzSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz corpus replay is not a -short test")
	}
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			checkSeed(t, seed)
		})
	}
}

// TestTooSmallScaleFailsFast pins the oracle's guard against alone runs
// too short to register: at a tenth of quick scale, seed 4's fop alone
// run takes 0 simulated seconds, which would give a fop resident a zero
// accrual rate and stall the episode with its backlog undrained. The
// run must instead fail up front with one line naming the app, the
// scale and the remedy.
func TestTooSmallScaleFailsFast(t *testing.T) {
	sc := Generate(4)
	if sc.Fleet == nil {
		t.Fatal("seed 4 no longer generates a fleet")
	}
	r := sched.New(sched.Options{Scale: sched.QuickScale / 10})
	_, err := fleet.Run(r, sc.Name, sc.Fleet, 0)
	const want = "fleet: alone run of fop took 0 s at scale 3e-05; raise -scale"
	if err == nil || err.Error() != want {
		t.Fatalf("got error %v, want %q", err, want)
	}
}
