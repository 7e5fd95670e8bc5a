package fleet_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fleet"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// TestFleetMega10kFullGolden pins the shipped 10,000-machine example at
// the default scale — what `cachepart fleet run` prints without -quick.
// The quick-scale golden runs a lighter load; this one drives the
// placement index through the full-scale arrival rate, so it is the
// byte-identity check for every placement query at datacenter size.
// Skipped under -short (it simulates the probe runs at full scale).
// Regenerate with -update-golden.
func TestFleetMega10kFullGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale 10k-machine fleet; skipped under -short")
	}
	s, err := scenario.ParseFile(filepath.Join("..", "..", "examples", "scenarios", "fleet-mega-10k.json"))
	if err != nil {
		t.Fatal(err)
	}
	r := sched.New(sched.Options{Scale: sched.DefaultScale})
	rep, err := fleet.Run(r, s.Name, s.Fleet, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := rep.String()
	path := filepath.Join("testdata", "fleet_mega10k_full.golden")
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
