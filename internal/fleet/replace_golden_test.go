package fleet_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sched"
)

// TestReplaceBatchGolden pins the exact tier's "replace" batch: a
// timeline batch-arrival of an app outside the declared backlog is
// priced in its own batch after the oracle's. The small test fleet
// plus a streamcluster arrival is the only fleet that brings one in,
// so both its report and its traced span structure (which must hold a
// replace-batch span) are golden-pinned at quick scale. Regenerate
// with -update-golden.
func TestReplaceBatchGolden(t *testing.T) {
	def := fleet.SmallDef()
	def.Events = []fleet.Event{
		{At: 0.02, Kind: fleet.EvBatchArrival, App: "streamcluster", Count: 2, Iterations: 10},
	}
	tr := obs.New(0)
	r := sched.New(sched.Options{Scale: quickScale, Parallelism: 4, Tracer: tr})
	root := tr.Start("run", 0)
	rep, err := fleet.Run(r, "replace", def, root.ID())
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	if tr.Dropped() != 0 {
		t.Fatalf("tracer dropped %d spans; raise the limit so the structure is complete", tr.Dropped())
	}
	structure := tr.Structure()
	if !strings.Contains(structure, "replace-batch") {
		t.Fatalf("no replace-batch span in the trace:\n%s", structure)
	}

	for _, g := range []struct{ file, got string }{
		{"fleet_replace_quick.golden", rep.String()},
		{"fleet_replace_trace.golden", structure},
	} {
		path := filepath.Join("testdata", g.file)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(g.got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update-golden): %v", err)
		}
		if g.got != string(want) {
			t.Errorf("%s drifted\n--- want ---\n%s\n--- got ---\n%s", g.file, want, g.got)
		}
	}
}
