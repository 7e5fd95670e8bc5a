package fleet_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/sched"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// quickScale is the CLI's -quick scale, so the golden file is exactly
// what `cachepart fleet run -quick` prints for the shipped example
// (minus the host-time footer).
const quickScale = sched.QuickScale

// TestFleet50Golden pins the shipped 50-machine consolidation example
// at quick scale and asserts the acceptance shape the fleet exists to
// demonstrate: pack-with-partition-check serves the identical trace on
// fewer machines than spread-idle at (near-)equal p99.
//
// Regenerate (only for an intentional model change) with:
//
//	go test ./internal/fleet -run TestFleet50Golden -update-golden
func TestFleet50Golden(t *testing.T) {
	s, err := scenario.ParseFile(filepath.Join("..", "..", "examples", "scenarios", "fleet-consolidation-50.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsFleet() {
		t.Fatal("fleet-consolidation-50.json lost its fleet block")
	}
	r := sched.New(sched.Options{Scale: quickScale})
	rep, err := fleet.Run(r, s.Name, s.Fleet, 0)
	if err != nil {
		t.Fatal(err)
	}

	byPol := map[fleet.PolicyName]fleet.PolicyResult{}
	for _, pr := range rep.Results {
		byPol[pr.Policy] = pr
	}
	spread, ok1 := byPol[fleet.SpreadIdle]
	pack, ok2 := byPol[fleet.PackPartition]
	if !ok1 || !ok2 {
		t.Fatal("example no longer compares spread-idle and pack-partition")
	}
	if pack.MachinesUsed >= spread.MachinesUsed {
		t.Errorf("pack-partition used %d machines, spread-idle %d — consolidation failed",
			pack.MachinesUsed, spread.MachinesUsed)
	}
	// "Equal p99": the partition check bounds the co-located tail to a
	// few percent of spread's never-co-located baseline.
	if pack.P99 > spread.P99*1.05 {
		t.Errorf("pack-partition p99 %.3f not within 5%% of spread-idle %.3f", pack.P99, spread.P99)
	}
	if pack.ActiveSocketJ >= spread.ActiveSocketJ {
		t.Errorf("pack-partition energy %.1f J not below spread-idle %.1f J",
			pack.ActiveSocketJ, spread.ActiveSocketJ)
	}

	got := rep.String()
	path := filepath.Join("testdata", "fleet50_quick.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("fleet output drifted from golden\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestFleetMega10kGolden pins the shipped 10,000-machine example — the
// auto fidelity tier's flagship — at quick scale: the full fleet run
// must complete and its report must stay byte-identical, including the
// fidelity line accounting for every co-location as predicted or
// re-simulated. Regenerate with -update-golden.
func TestFleetMega10kGolden(t *testing.T) {
	s, err := scenario.ParseFile(filepath.Join("..", "..", "examples", "scenarios", "fleet-mega-10k.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Fleet.EffectiveFidelity(); got != fleet.FidelityAuto {
		t.Fatalf("example declares fidelity %q, want auto", got)
	}
	if s.Fleet.Machines != 10000 {
		t.Fatalf("example declares %d machines, want 10000", s.Fleet.Machines)
	}
	r := sched.New(sched.Options{Scale: quickScale})
	rep, err := fleet.Run(r, s.Name, s.Fleet, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fidelity != fleet.FidelityAuto {
		t.Errorf("report fidelity %q, want auto", rep.Fidelity)
	}
	if rep.PairsPredicted+rep.PairsResimulated == 0 {
		t.Error("auto tier accounted for no co-locations")
	}

	got := rep.String()
	path := filepath.Join("testdata", "fleet_mega10k_quick.golden")
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
		t.Errorf("fleet output drifted from golden\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestFleetUtility50 pins the shipped utility-partitioning example's
// acceptance shape: the same trace under the utility policy
// consolidates onto fewer machines than under a shared LLC — because
// shared co-locations blow the 10% request-slowdown budget and get
// rejected, while utility-partitioned ones pass — at a p99 within the
// declared limit.
func TestFleetUtility50(t *testing.T) {
	s, err := scenario.ParseFile(filepath.Join("..", "..", "examples", "scenarios", "fleet-utility-50.json"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Fleet.Partition != "utility" {
		t.Fatalf("example declares partition %q, want utility", s.Fleet.Partition)
	}
	// One runner for both modes: the alone baselines simulate once.
	r := sched.New(sched.Options{Scale: quickScale})
	util, err := fleet.Run(r, s.Name, s.Fleet, 0)
	if err != nil {
		t.Fatal(err)
	}
	sharedDef := *s.Fleet
	sharedDef.Partition = "shared"
	shared, err := fleet.Run(r, s.Name+"-shared", &sharedDef, 0)
	if err != nil {
		t.Fatal(err)
	}

	pick := func(rep *fleet.Report, pol fleet.PolicyName) fleet.PolicyResult {
		for _, pr := range rep.Results {
			if pr.Policy == pol {
				return pr
			}
		}
		t.Fatalf("%s: no %s result", rep.Name, pol)
		return fleet.PolicyResult{}
	}
	up := pick(util, fleet.PackPartition)
	sp := pick(shared, fleet.PackPartition)

	if up.MachinesUsed >= sp.MachinesUsed {
		t.Errorf("utility pack-partition used %d machines, shared %d — utility should consolidate harder",
			up.MachinesUsed, sp.MachinesUsed)
	}
	if limit := s.Fleet.SlowdownLimit; up.P99 > limit {
		t.Errorf("utility pack-partition p99 %.3f exceeds the declared limit %.2f", up.P99, limit)
	}
	if up.Rejects != 0 {
		t.Errorf("utility co-locations were rejected %d times; the curves should pass the check", up.Rejects)
	}
	if sp.Rejects == 0 {
		t.Error("shared co-locations all passed the check — the example no longer demonstrates the contrast")
	}
	if up.Colocated == 0 {
		t.Error("utility pack-partition never co-located")
	}
	if up.Reallocations == 0 {
		t.Error("utility policy reported no reallocations — is the decision loop attached?")
	}
}
