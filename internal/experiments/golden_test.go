package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// TestFig9Golden pins the rendered Figure 9 table at quick scale
// against a checked-in golden file captured before the scenario-layer
// refactor. Any change to placement, seeding, partition masks, or the
// policy search would shift these numbers; the driver rewiring on top
// of the scenario subsystem must not.
//
// Regenerate (only for an intentional model change) with:
//
//	go test ./internal/experiments -run TestFig9Golden -update-golden
func TestFig9Golden(t *testing.T) {
	got := quickAt(0).Fig9StaticPolicies().Table.String()
	path := filepath.Join("testdata", "fig9_quick.golden")
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
		t.Errorf("Fig 9 output drifted from pre-refactor golden\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestAblationGoldens pins the seven ablation tables at the quickAt
// scope, one golden for all of them. The platform-variant ablations
// (small LLC, bandwidth QoS, indexing, replacement, inclusion) put a
// second platform beside the default one, so this is the net under
// any change to how a spec names its platform. Regenerate with
// -update-golden.
func TestAblationGoldens(t *testing.T) {
	c := quickAt(0)
	var sb strings.Builder
	for _, tab := range []*Table{
		c.AblationSmallLLC(),
		c.AblationBandwidthQoS(),
		c.AblationIndexing(),
		c.AblationReplacement(),
		c.AblationInclusion(),
		c.AblationPrefetchers(),
		c.AblationMultiBackground(),
	} {
		sb.WriteString(tab.String())
		sb.WriteByte('\n')
	}
	got := sb.String()
	path := filepath.Join("testdata", "ablations_quick.golden")
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
		t.Errorf("ablation tables drifted\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestCharacterizationGoldens pins the characterization and
// co-scheduling tables at the quickAt scope, one golden for all of
// them: Figures 1-4, Tables 1 and 2, Figure 5 / Table 3 with its
// dendrogram, Figures 6-8, and the headline table. Together with the
// Fig 9, consolidation and ablation goldens it covers every driver, so
// a change to how a driver batches its sweep must leave these bytes
// alone. Regenerate with -update-golden.
func TestCharacterizationGoldens(t *testing.T) {
	c := quickAt(0)
	table1, _ := c.Table1Scalability()
	fig5 := c.Fig5Clustering()
	var sb strings.Builder
	for _, s := range []string{
		c.Fig1ThreadScalability().String(),
		table1.String(),
		c.Fig2LLCSensitivity().String(),
		c.Table2LLCUtility().Table.String(),
		c.Fig3Prefetchers().String(),
		c.Fig4Bandwidth().String(),
		fig5.Table.String() + "\ndendrogram:\n" + fig5.Dendrogram,
		c.Fig6AllocationSpace().String(),
		c.Fig7YieldableCapacity().String(),
		c.Fig8Heatmap(nil, nil).Table.String(),
		c.Headline().Table.String(),
	} {
		sb.WriteString(s)
		sb.WriteByte('\n')
	}
	got := sb.String()
	path := filepath.Join("testdata", "characterization_quick.golden")
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
		t.Errorf("characterization tables drifted\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestConsolidationGoldens pins Figures 10 through 13 at quick scale
// the same way TestFig9Golden pins Figure 9: the static-policy
// consolidation accounting (Figs 10/11), the phase trace of the
// dynamic controller (Fig 12), and the dynamic-versus-best-static
// throughput study (Fig 13). Regenerate with -update-golden.
func TestConsolidationGoldens(t *testing.T) {
	c := quickAt(0)
	fig10, fig11, _ := c.Fig10and11Consolidation()
	for _, g := range []struct{ name, got string }{
		{"fig10_quick.golden", fig10.String()},
		{"fig11_quick.golden", fig11.String()},
		{"fig12_quick.golden", c.Fig12Phases().String()},
		{"fig13_quick.golden", c.Fig13DynamicThroughput().Table.String()},
	} {
		path := filepath.Join("testdata", g.name)
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
			t.Errorf("%s drifted\n--- want ---\n%s\n--- got ---\n%s", g.name, want, g.got)
		}
	}
}
