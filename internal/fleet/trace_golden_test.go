package fleet_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// TestFleetMega10kTraceGolden pins the span structure a traced
// fleet-mega-10k run produces at quick scale: names, nesting, and
// counts — never durations, which are wall-clock. The structure is
// deterministic because the engine plans the same batches in the same
// shape at any parallelism. Regenerate with -update-golden.
func TestFleetMega10kTraceGolden(t *testing.T) {
	s, err := scenario.ParseFile(filepath.Join("..", "..", "examples", "scenarios", "fleet-mega-10k.json"))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New(0)
	r := sched.New(sched.Options{Scale: quickScale, Parallelism: 4, Tracer: tr})
	root := tr.Start("run", 0)
	if _, err := fleet.Run(r, s.Name, s.Fleet, root.ID()); err != nil {
		t.Fatal(err)
	}
	root.End()

	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d spans; raise the limit so the structure is complete", tr.Dropped())
	}
	got := tr.Structure()
	path := filepath.Join("testdata", "fleet_mega10k_trace.golden")
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
		t.Errorf("trace structure drifted from golden\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}
