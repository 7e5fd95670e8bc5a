package experiments

import (
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// quick returns a reduced-scope context small enough for unit tests.
func quick() *Context {
	return NewQuickContext(sched.Options{Scale: 5e-4})
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "demo", Columns: []string{"a", "b"}}
	tb.Add("x", "yy")
	tb.Note("n=%d", 1)
	s := tb.String()
	for _, want := range []string{"demo", "a", "yy", "note: n=1"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestTableCellCountPanics(t *testing.T) {
	tb := &Table{Title: "demo", Columns: []string{"a", "b"}}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched row accepted")
		}
	}()
	tb.Add("only-one")
}

func TestFig1AndTable1(t *testing.T) {
	c := quick()
	fig := c.Fig1ThreadScalability()
	if len(fig.Rows) != len(c.Apps) {
		t.Fatalf("%d rows for %d apps", len(fig.Rows), len(c.Apps))
	}
	tab, classes := c.Table1Scalability()
	if len(tab.Rows) != len(c.Apps) {
		t.Fatal("Table 1 row count")
	}
	// The SPEC representative is sequential: must classify low.
	if classes["429.mcf"] != ScalLow {
		t.Fatalf("mcf scalability class = %s", classes["429.mcf"])
	}
	// ferret is a PARSEC high scaler.
	if classes["ferret"] != ScalHigh {
		t.Fatalf("ferret scalability class = %s", classes["ferret"])
	}
}

func TestFig2Renders(t *testing.T) {
	c := quick()
	s := c.Fig2LLCSensitivity().String()
	for _, want := range []string{"swaptions", "tomcat", "471.omnetpp"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Figure 2 missing %s", want)
		}
	}
}

func TestTable2Classes(t *testing.T) {
	c := quick()
	res := c.Table2LLCUtility()
	if res.Classes["ferret"] != UtilLow {
		t.Fatalf("ferret utility = %s, want low", res.Classes["ferret"])
	}
	if res.Classes["fop"] != UtilHigh && res.Classes["fop"] != UtilSaturated {
		t.Fatalf("fop utility = %s", res.Classes["fop"])
	}
	if res.FracUnder3MB < res.FracUnder1MB {
		t.Fatal("census fractions inconsistent")
	}
}

func TestFig3And4(t *testing.T) {
	c := quick()
	if got := c.PrefetchSensitivity(workload.MustByName("459.GemsFDTD")); got > 0.9 {
		t.Fatalf("GemsFDTD prefetch sensitivity %v, want strong benefit", got)
	}
	if got := c.BandwidthSensitivity(workload.MustByName("459.GemsFDTD")); got < 1.2 {
		t.Fatalf("GemsFDTD bandwidth sensitivity %v, want strong", got)
	}
	// Ordering is the scale-robust claim: the managed-suite app must be
	// clearly less bandwidth-sensitive than the SPEC streamer.
	gems := c.BandwidthSensitivity(workload.MustByName("459.GemsFDTD"))
	batik := c.BandwidthSensitivity(workload.MustByName("batik"))
	if batik >= gems {
		t.Fatalf("batik (%v) as bandwidth-sensitive as GemsFDTD (%v)", batik, gems)
	}
}

func TestFig5Clustering(t *testing.T) {
	c := quick()
	res := c.Fig5Clustering()
	if len(res.Groups) < 2 {
		t.Fatalf("only %d clusters among the representatives", len(res.Groups))
	}
	total := 0
	for _, g := range res.Groups {
		total += len(g)
	}
	if total != len(c.Apps) {
		t.Fatalf("clusters cover %d of %d apps", total, len(c.Apps))
	}
	if res.Dendrogram == "" {
		t.Fatal("empty dendrogram")
	}
}

func TestFig6And7(t *testing.T) {
	c := quick()
	c.Reps = c.Reps[:2] // keep the sweep small
	pts := c.AllocationSpace(c.Reps[0], c.ThreadPoints, c.WayPoints)
	if len(pts) == 0 {
		t.Fatal("no allocation points")
	}
	tab := c.Fig7YieldableCapacity()
	if len(tab.Rows) != 2 {
		t.Fatalf("Fig 7 rows: %d", len(tab.Rows))
	}
}

func TestFig8Aggregates(t *testing.T) {
	c := quick()
	res := c.Fig8Heatmap(c.Reps[:3], c.Reps[:3])
	if res.AvgSlowdown < 0.95 || res.AvgSlowdown > 1.5 {
		t.Fatalf("implausible average slowdown %v", res.AvgSlowdown)
	}
	if res.WorstSlowdown < res.AvgSlowdown {
		t.Fatal("worst < average")
	}
	if len(res.Table.Rows) != 3 {
		t.Fatal("heatmap rows")
	}
}

func TestFig9PoliciesOrdering(t *testing.T) {
	c := quick()
	c.Reps = c.Reps[:3]
	res := c.Fig9StaticPolicies()
	if len(res.Outcomes) != 3*3*3 {
		t.Fatalf("%d outcomes", len(res.Outcomes))
	}
	// Biased is chosen to minimize fg degradation: its average cannot be
	// meaningfully worse than shared.
	if res.Avg["biased"] > res.Avg["shared"]+0.02 {
		t.Fatalf("biased avg %v worse than shared %v",
			res.Avg["biased"], res.Avg["shared"])
	}
	if res.Worst["biased"] > res.Worst["shared"]+0.02 {
		t.Fatal("biased worst exceeds shared worst")
	}
}

func TestFig10And11(t *testing.T) {
	c := quick()
	c.Reps = c.Reps[:3]
	e, w, outcomes := c.Fig10and11Consolidation()
	if len(outcomes) != 6*3 { // 6 unordered pairs x 3 policies
		t.Fatalf("%d outcomes", len(outcomes))
	}
	for _, o := range outcomes {
		if o.RelSocketEnergy <= 0 || o.RelSocketEnergy > 1.6 {
			t.Fatalf("implausible relative energy %v for %s+%s", o.RelSocketEnergy, o.A, o.B)
		}
		if o.WeightedSpeedup <= 0 || o.WeightedSpeedup > 2.2 {
			t.Fatalf("implausible weighted speedup %v", o.WeightedSpeedup)
		}
	}
	if len(e.Rows) != 6 || len(w.Rows) != 6 {
		t.Fatal("table rows")
	}
}

func TestFig12Renders(t *testing.T) {
	c := quick()
	s := c.Fig12Phases().String()
	if !strings.Contains(s, "dynamic") {
		t.Fatalf("Figure 12 missing dynamic row:\n%s", s)
	}
}

func TestFig13Shapes(t *testing.T) {
	c := quick()
	c.Reps = c.Reps[:2]
	res := c.Fig13DynamicThroughput()
	if len(res.DynamicGain) != 4 {
		t.Fatalf("%d pairs", len(res.DynamicGain))
	}
	for i, g := range res.DynamicGain {
		if g <= 0 {
			t.Fatalf("pair %d: non-positive dynamic gain", i)
		}
	}
}
