package fleet_test

import (
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/loadgen"
	"repro/internal/scenario"
	"repro/internal/scenario/fuzz"
	"repro/internal/sched"
)

// TestPlacementMatchesScan is the placement index's zero-drift check:
// every decision the indexed policies make — the machine and whether
// the partition check rejected a co-location — must equal the
// linear-scan reference's on the same state, and the index must agree
// with the machine states at every decision. It covers the shipped
// fleet examples and the committed fuzz corpus at quick scale, the
// churn example with hysteresis holds overlapping its traffic, and a
// synthetic 10,000-machine fleet whose failures, drains and repairs
// cross word boundaries and release a hold at exactly an arrival's
// timestamp.
func TestPlacementMatchesScan(t *testing.T) {
	r := sched.New(sched.Options{Scale: quickScale})
	var total struct{ decisions, rejected, fallbacks int }
	add := func(name string, def *fleet.Def) {
		c := fleet.DiffPlacements(t, r, name, def)
		t.Logf("%s: %d decisions, %d rejected, %d fallbacks, %d at a hold's expiry",
			name, c.Decisions, c.Rejected, c.Fallbacks, c.HoldEdge)
		total.decisions += c.Decisions
		total.rejected += c.Rejected
		total.fallbacks += c.Fallbacks
	}

	t.Run("examples", func(t *testing.T) {
		files, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "fleet-*.json"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no shipped fleet examples: %v", err)
		}
		for _, f := range files {
			s, err := scenario.ParseFile(f)
			if err != nil {
				t.Fatal(err)
			}
			add(s.Name, s.Fleet)
			if s.Fleet.Partition == fleet.PartUtility {
				// Unpartitioned, the utility example's co-locations fail
				// the check: the rejection path.
				shared := *s.Fleet
				shared.Partition = fleet.PartShared
				add(s.Name+"/shared", &shared)
			}
		}
	})

	t.Run("fuzz-corpus", func(t *testing.T) {
		dir := filepath.Join("..", "scenario", "fuzz", "testdata", "fuzz", "FuzzScenario")
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) == 0 {
			t.Fatalf("no committed fuzz corpus: %v", err)
		}
		fleets := 0
		for _, e := range entries {
			seed := corpusSeed(t, filepath.Join(dir, e.Name()))
			if sc := fuzz.Generate(seed); sc.Fleet != nil {
				add(sc.Name, sc.Fleet)
				fleets++
			}
		}
		if fleets == 0 {
			t.Fatal("the fuzz corpus generates no fleets")
		}
	})

	t.Run("churn-hysteresis", func(t *testing.T) {
		s := loadChurn(t)
		// The shipped hold, then one long enough to span the load spike.
		for _, h := range []float64{s.Fleet.Hysteresis, 0.12} {
			def := *s.Fleet
			def.Hysteresis = h
			add(s.Name+"/hysteresis-"+strconv.FormatFloat(h, 'g', -1, 64), &def)
		}
	})

	t.Run("synthetic-10k", func(t *testing.T) {
		c := fleet.DiffPlacements(t, r, "synthetic-10k", synthetic10k(t))
		t.Logf("synthetic-10k: %d decisions, %d rejected, %d fallbacks, %d at a hold's expiry",
			c.Decisions, c.Rejected, c.Fallbacks, c.HoldEdge)
		if c.HoldEdge == 0 {
			t.Error("no decision fell on a hold's expiry instant; the equal-timestamp release went unchecked")
		}
		total.decisions += c.Decisions
		total.rejected += c.Rejected
		total.fallbacks += c.Fallbacks
	})

	if total.rejected == 0 || total.fallbacks == 0 {
		t.Errorf("coverage: %d decisions exercised %d rejections and %d fallbacks; both must be non-zero",
			total.decisions, total.rejected, total.fallbacks)
	}
}

// corpusSeed reads one committed `go test fuzz v1` corpus file.
func corpusSeed(t *testing.T, path string) uint64 {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(strings.TrimSpace(line), "uint64("); ok {
			seed, err := strconv.ParseUint(strings.TrimSuffix(v, ")"), 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			return seed
		}
	}
	t.Fatalf("%s: no uint64 corpus entry", path)
	return 0
}

// synthetic10k is a 10,000-machine fleet under heavy two-class load
// with failures, a drain and repairs on machines at both ends of the
// pool and across a 64-machine word boundary. One repair is timed so
// its hysteresis hold expires at exactly an arrival's timestamp, where
// the arrival pops before the machine's wake event.
func synthetic10k(t *testing.T) *fleet.Def {
	t.Helper()
	const hold = 1.0 / 128 // exact in binary, so up + hold can land on an arrival exactly
	def := &fleet.Def{
		Machines:      10000,
		Duration:      0.04,
		Seed:          "diff-10k",
		Fidelity:      fleet.FidelityFast,
		Partition:     fleet.PartShared,
		SlowdownLimit: 1.02,
		BatchWidth:    600,
		Hysteresis:    hold,
		Arrivals: []loadgen.RequestClass{
			{App: "xalan", Rate: 30000},
			{App: "429.mcf", Rate: 10000},
		},
		Backlog: []loadgen.BatchDef{
			{App: "ferret", Count: 400, Iterations: 4},
			{App: "dedup", Count: 400, Iterations: 4},
		},
	}
	arrivals, err := loadgen.Arrivals(def.Arrivals, def.Duration, def.Seed)
	if err != nil {
		t.Fatal(err)
	}
	up := -1.0
	for _, a := range arrivals {
		if at := a.AtSeconds; at > 0.02 && (at-hold)+hold == at {
			up = at - hold
			break
		}
	}
	if up < 0 {
		t.Fatal("no arrival time a with (a - hold) + hold == a")
	}
	def.Events = []fleet.Event{
		{At: 0.001, Kind: fleet.EvMachineDown, Machine: 0},
		{At: 0.002, Kind: fleet.EvMachineDown, Machine: 3, Drain: true},
		{At: 0.003, Kind: fleet.EvMachineDown, Machine: 64},
		{At: 0.004, Kind: fleet.EvMachineDown, Machine: 9999},
		{At: 0.006, Kind: fleet.EvMachineUp, Machine: 3},
		{At: 0.008, Kind: fleet.EvMachineUp, Machine: 64},
		{At: up, Kind: fleet.EvMachineUp, Machine: 0},
		{At: 0.03, Kind: fleet.EvMachineUp, Machine: 9999},
	}
	sort.SliceStable(def.Events, func(i, j int) bool { return def.Events[i].At < def.Events[j].At })
	return def
}
