package fleet_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/loadgen"
	"repro/internal/sched"
)

// TestFleetWideMachineGolden pins the §5 pair shape on machines wider
// than the 4-core prototype: each 8-core machine splits into a 4-core
// latency half and a 4-core batch half, with threads capped at the
// half's 8 hyperthreads. It renders one small fleet under a search and
// an online partition policy, each at every fidelity tier; the wide
// fast margin makes auto re-simulate part of its co-locations, so the
// exact pair runs, the probe runs and the predictions are all pinned.
// Regenerate with -update-golden.
func TestFleetWideMachineGolden(t *testing.T) {
	base := fleet.Def{
		Machines:   4,
		Cores:      8,
		Duration:   0.05,
		FastMargin: 0.5,
		Arrivals:   []loadgen.RequestClass{{App: "xalan", Rate: 200}},
		Backlog: []loadgen.BatchDef{
			{App: "ferret", Count: 2},
			{App: "429.mcf", Count: 1},
		},
	}
	r := sched.New(sched.Options{Scale: quickScale})
	var sb strings.Builder
	for _, part := range []string{"biased", "dynamic"} {
		for _, fid := range []fleet.Fidelity{fleet.FidelityExact, fleet.FidelityFast, fleet.FidelityAuto} {
			def := base
			def.Partition = fleet.PartitionMode(part)
			def.Fidelity = fid
			rep, err := fleet.Run(r, "fleet-cores8", &def, 0)
			if err != nil {
				t.Fatalf("%s/%s: %v", part, fid, err)
			}
			fmt.Fprintf(&sb, "-- partition %s, fidelity %s\n%s", part, fid, rep.String())
		}
	}

	got := sb.String()
	path := filepath.Join("testdata", "fleet_cores8_quick.golden")
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
		t.Errorf("wide-machine fleet drifted from golden\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}
