package scenario_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/partition"
	"repro/internal/scenario"
	"repro/internal/sched"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// TestScenarioPolicyGoldens pins the report of every shipped
// single-machine scenario under every registered partition policy at
// the CLI's -quick scale: one golden file per scenario, the reports
// concatenated in registry order, with the policies the scenario's
// shape rejects recorded by their one-line error. Any change to
// placement, seeding, masks, the biased search, or the online loop
// shifts these bytes.
//
// Regenerate (only for an intentional model change) with:
//
//	go test ./internal/scenario -run TestScenarioPolicyGoldens -update-golden
func TestScenarioPolicyGoldens(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	r := sched.New(sched.Options{Scale: sched.QuickScale})
	ran := 0
	for _, file := range files {
		probe, err := scenario.ParseFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if probe.IsFleet() {
			continue
		}
		ran++
		var sb strings.Builder
		for _, name := range partition.Names() {
			s, err := scenario.ParseFile(file)
			if err != nil {
				t.Fatal(err)
			}
			s.Partition.Policy = scenario.PolicyRef{Name: name}
			rep, err := scenario.Run(r, s, 0)
			if err != nil {
				fmt.Fprintf(&sb, "-- policy %s not admitted: %v\n", name, err)
				continue
			}
			fmt.Fprintf(&sb, "-- policy %s\n%s", name, rep.String())
		}
		base := strings.TrimSuffix(filepath.Base(file), ".json")
		checkGolden(t, filepath.Join("testdata", base+"_policies_quick.golden"), sb.String())
	}
	if ran != 4 {
		t.Fatalf("pinned %d single-machine examples, want 4", ran)
	}
}

// checkGolden compares got against the golden file at path, or
// rewrites the file under -update-golden.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
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
		t.Errorf("%s drifted from its golden\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
	}
}
