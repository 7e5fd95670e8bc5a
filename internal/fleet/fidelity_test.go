package fleet

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sched"
)

// loadFleetDef reads just the fleet block of a shipped example scenario.
// (The scenario package imports fleet, so this internal test parses the
// file directly.)
func loadFleetDef(t *testing.T, file string) *Def {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "examples", "scenarios", file))
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		Name  string `json:"name"`
		Fleet *Def   `json:"fleet"`
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	if s.Fleet == nil {
		t.Fatalf("%s carries no fleet block", file)
	}
	return s.Fleet
}

// fastSlowdownTolerance pins the analytic tier's accuracy contract: the
// relative error of every predicted request slowdown against the exact
// simulation, across every co-location pair in every shipped fleet
// example. Loosening it needs a model change with a justification, not
// a bump.
const fastSlowdownTolerance = 0.15

// TestFastErrorBound validates the MRC+CPI predictions of every
// co-location pair the shipped fleet examples exercise against the
// exact tier, and logs the worst case so accuracy drift is visible in
// verbose runs even while within tolerance.
func TestFastErrorBound(t *testing.T) {
	files := []string{
		"fleet-consolidation-50.json",
		"fleet-utility-50.json",
		"fleet-diurnal.json",
		"fleet-batch-drain.json",
		"fleet-dynamic-8.json",
		"fleet-mega-10k.json",
	}
	// One runner for every def: alone baselines and repeated pairs
	// memoize across examples.
	r := sched.New(sched.Options{Scale: sched.QuickScale})
	var worst float64
	var worstAt string
	pairs := 0
	for _, file := range files {
		def := loadFleetDef(t, file)
		exactDef, fastDef := *def, *def
		exactDef.Fidelity, fastDef.Fidelity = FidelityExact, FidelityFast
		oe, err := buildOracle(r, &exactDef, 0)
		if err != nil {
			t.Fatalf("%s exact: %v", file, err)
		}
		of, err := buildOracle(r, &fastDef, 0)
		if err != nil {
			t.Fatalf("%s fast: %v", file, err)
		}
		if len(of.pair) != len(oe.pair) {
			t.Fatalf("%s: fast tier priced %d pair slots, exact %d", file, len(of.pair), len(oe.pair))
		}
		for _, fg := range def.fgApps() {
			for _, bg := range def.bgApps() {
				pe, pf := oe.pair[oe.slot(fg, bg)], of.pair[of.slot(fg, bg)]
				if pf.FgSeconds <= 0 {
					t.Fatalf("%s: fast tier missed pair %s+%s", file, fg, bg)
				}
				rel := math.Abs(pf.FgSlowdown-pe.FgSlowdown) / pe.FgSlowdown
				name := file + "/" + fg + "+" + bg
				if rel > fastSlowdownTolerance {
					t.Errorf("%s: predicted slowdown %.4f vs exact %.4f — relative error %.3f exceeds %.2f",
						name, pf.FgSlowdown, pe.FgSlowdown, rel, fastSlowdownTolerance)
				}
				if rel > worst {
					worst, worstAt = rel, name
				}
				pairs++
			}
		}
	}
	t.Logf("validated %d co-location pairs; worst relative slowdown error %.4f at %s", pairs, worst, worstAt)
}

// TestAutoWideMarginMatchesExact pins auto's degenerate contract: with
// a margin wide enough to make every co-location borderline, every pair
// is re-simulated and the report is byte-identical to the exact tier's
// except for the fidelity line — because probing runs are shadow-only
// and the re-simulations replay the exact tier's own specs.
func TestAutoWideMarginMatchesExact(t *testing.T) {
	def := loadFleetDef(t, "fleet-dynamic-8.json")
	// One runner: the exact run populates the memo the auto run's
	// re-simulations replay from.
	r := sched.New(sched.Options{Scale: sched.QuickScale})

	exactDef := *def
	exactDef.Fidelity = FidelityExact
	exact, err := Run(r, "wide-margin", &exactDef)
	if err != nil {
		t.Fatal(err)
	}

	autoDef := *def
	autoDef.Fidelity = FidelityAuto
	autoDef.FastMargin = 99
	auto, err := Run(r, "wide-margin", &autoDef)
	if err != nil {
		t.Fatal(err)
	}
	if auto.PairsResimulated == 0 || auto.PairsPredicted != 0 {
		t.Fatalf("margin 99 should re-simulate every pair: %d predicted, %d re-simulated",
			auto.PairsPredicted, auto.PairsResimulated)
	}

	strip := func(s string) string {
		var keep []string
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "fidelity:") {
				continue
			}
			keep = append(keep, line)
		}
		return strings.Join(keep, "\n")
	}
	got, want := strip(auto.String()), exact.String()
	if !strings.Contains(auto.String(), "fidelity: auto") {
		t.Error("auto report carries no fidelity line")
	}
	if got != want {
		t.Errorf("auto(margin 99) diverged from exact\n--- exact ---\n%s\n--- auto ---\n%s", want, got)
	}
}
