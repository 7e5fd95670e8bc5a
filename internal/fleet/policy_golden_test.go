package fleet_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// TestFleet50PolicyMatrixGolden pins the shipped 50-machine
// consolidation example under every partition policy a fleet admits
// (shared, fair, biased, dynamic, utility), each priced by the exact
// tier and by the fast tier, at quick scale. It is the report-level
// net under both tiers' policy pricing: static splits, the protective
// biased sweep, loop-attached online episodes, and the analytic
// predictions of each. Regenerate with -update-golden.
func TestFleet50PolicyMatrixGolden(t *testing.T) {
	s, err := scenario.ParseFile(filepath.Join("..", "..", "examples", "scenarios", "fleet-consolidation-50.json"))
	if err != nil {
		t.Fatal(err)
	}
	r := sched.New(sched.Options{Scale: quickScale})
	var sb strings.Builder
	for _, part := range []string{"shared", "fair", "biased", "dynamic", "utility"} {
		for _, fid := range []fleet.Fidelity{fleet.FidelityExact, fleet.FidelityFast} {
			def := *s.Fleet
			def.Partition = fleet.PartitionMode(part)
			def.Fidelity = fid
			rep, err := fleet.Run(r, s.Name, &def, 0)
			if err != nil {
				t.Fatalf("%s/%s: %v", part, fid, err)
			}
			fmt.Fprintf(&sb, "-- partition %s, fidelity %s\n%s", part, fid, rep.String())
		}
	}

	got := sb.String()
	path := filepath.Join("testdata", "fleet50_policies_quick.golden")
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
		t.Errorf("fleet policy matrix drifted from golden\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}
