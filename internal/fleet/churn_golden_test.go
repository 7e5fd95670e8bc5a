package fleet_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// loadChurn parses the shipped churn example and sanity-checks that it
// still exercises the event machinery the test exists for.
func loadChurn(t *testing.T) *scenario.Scenario {
	t.Helper()
	s, err := scenario.ParseFile(filepath.Join("..", "..", "examples", "scenarios", "fleet-churn-50.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsFleet() || len(s.Fleet.Events) == 0 {
		t.Fatal("fleet-churn-50.json lost its fleet block or event timeline")
	}
	counts := s.Fleet.EventCounts()
	if counts.Failures == 0 || counts.Drains == 0 || counts.Ups == 0 || counts.LoadScales == 0 {
		t.Fatalf("churn example no longer mixes failures, drains, ups, and load scales: %+v", counts)
	}
	if s.Fleet.Hysteresis == 0 {
		t.Fatal("churn example no longer declares hysteresis")
	}
	return s
}

// TestFleetChurn50Golden pins the shipped churn example at quick scale:
// the full report — including the per-policy robustness table with
// time-to-recover and SLO-violation-minutes — must stay byte-identical.
// Regenerate (only for an intentional model change) with:
//
//	go test ./internal/fleet -run TestFleetChurn50Golden -update-golden
func TestFleetChurn50Golden(t *testing.T) {
	s := loadChurn(t)
	r := sched.New(sched.Options{Scale: quickScale})
	rep, err := fleet.Run(r, s.Name, s.Fleet, 0)
	if err != nil {
		t.Fatal(err)
	}

	// The robustness shape the example exists to demonstrate: every
	// policy has jobs displaced, and the policies differ in how they
	// recover — the idle-heavy pool re-places instantly while the
	// tightly packed one queues evictees and accrues SLO damage.
	var slowest, worstSLO float64
	for _, pr := range rep.Results {
		if pr.Evicted == 0 {
			t.Errorf("%s: machine events displaced no jobs", pr.Policy)
		}
		if pr.Lost+pr.Migrated == 0 {
			t.Errorf("%s: no jobs recorded lost or migrated", pr.Policy)
		}
		if pr.RecoverSeconds < 0 || pr.RecoverSeconds > s.Fleet.Duration {
			t.Errorf("%s: time-to-recover %.4f outside [0, %.2fs]",
				pr.Policy, pr.RecoverSeconds, s.Fleet.Duration)
		}
		if pr.PeakReplace == 0 {
			t.Errorf("%s: peak re-placement backlog is zero despite a failure", pr.Policy)
		}
		if pr.SLOViolationMin < 0 {
			t.Errorf("%s: negative SLO-violation-minutes %.4f", pr.Policy, pr.SLOViolationMin)
		}
		slowest = max(slowest, pr.RecoverSeconds)
		worstSLO = max(worstSLO, pr.SLOViolationMin)
	}
	if slowest == 0 {
		t.Error("every policy recovered instantly — the example no longer shows a recovery gap")
	}
	if worstSLO == 0 {
		t.Error("no policy accrued SLO-violation-minutes — the example no longer shows SLO damage")
	}

	got := rep.String()
	path := filepath.Join("testdata", "fleet_churn50_quick.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("churn output drifted from golden\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestChurnByteIdentity is the determinism contract under churn: for
// both the exact and the auto oracle tier, the churn example's report
// is byte-identical at parallelism 1 vs 8 and across a cold and a warm
// persistent store — eviction, re-placement, and hysteresis must not
// depend on worker scheduling or cache state.
func TestChurnByteIdentity(t *testing.T) {
	s := loadChurn(t)
	for _, tier := range []fleet.Fidelity{fleet.FidelityExact, fleet.FidelityAuto} {
		t.Run(string(tier), func(t *testing.T) {
			def := *s.Fleet
			def.Fidelity = tier
			run := func(opt sched.Options) string {
				opt.Scale = quickScale
				rep, err := fleet.Run(sched.New(opt), s.Name, &def, 0)
				if err != nil {
					t.Fatal(err)
				}
				return rep.String()
			}
			base := run(sched.Options{Parallelism: 1})
			if par8 := run(sched.Options{Parallelism: 8}); par8 != base {
				t.Errorf("par 8 diverged from par 1\n--- par1 ---\n%s\n--- par8 ---\n%s", base, par8)
			}
			dir := t.TempDir()
			if cold := run(sched.Options{Parallelism: 4, CacheDir: dir}); cold != base {
				t.Errorf("cold cache run diverged\n--- base ---\n%s\n--- cold ---\n%s", base, cold)
			}
			if warm := run(sched.Options{Parallelism: 4, CacheDir: dir}); warm != base {
				t.Errorf("warm cache run diverged\n--- base ---\n%s\n--- warm ---\n%s", base, warm)
			}
		})
	}
}
