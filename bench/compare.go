package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compareMain is `bench compare A B`: A and B are each a results file
// or a directory of them (one side's runs, e.g. the parent commit's and
// a change's, made alternately). For every workload and end-to-end
// metric it prints each side's median and quartiles, the share of pairs
// B wins, and a verdict against the metric's bound in BENCHMARK.json;
// then whether any output digest or deterministic count changed. It
// exits 1 when a metric got worse or an output changed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "repository root holding BENCHMARK.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: bench compare [-root DIR] A B  (each a results file or a directory of them)")
		return 2
	}
	spec, err := loadSpec(*root)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	a, err := loadRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	b, err := loadRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	bad := false
	fmt.Fprintf(stdout, "%-16s %-12s %-30s %-30s %5s %5s %8s  %s\n",
		"workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "pairs", "win", "change", "verdict")
	for _, w := range workloadDefs {
		for _, m := range spec.EndToEnd {
			av, bv := values(a, w.name, m.Name), values(b, w.name, m.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			row := judge(m, av, bv)
			bad = bad || row.verdict == "worse"
			fmt.Fprintf(stdout, "%-16s %-12s %-30s %-30s %5d %5.2f %+7.1f%%  %s\n",
				w.name, m.Name, row.a, row.b, row.pairs, row.win, row.change*100, row.verdict)
		}
	}
	changed := outputsChanged(a, b)
	fmt.Fprintf(stdout, "outputs changed: %s\n", changed)
	if bad || strings.HasPrefix(changed, "yes") {
		return 1
	}
	return 0
}

// run is one workload result of one invocation.
type run struct {
	seed  uint64
	smoke bool
	trace bool
	wr    *workloadResult
}

// loadRuns reads a results file or every results file in a directory,
// ordered by start time.
func loadRuns(path string) ([]run, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.json"))
		if err != nil {
			return nil, err
		}
	}
	var res []resultsFile
	for _, f := range files {
		if strings.HasSuffix(f, ".trace.json") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r resultsFile
		if err := json.Unmarshal(b, &r); err != nil || len(r.Workloads) == 0 {
			continue // not a results file
		}
		res = append(res, r)
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("%s: no results files", path)
	}
	sort.SliceStable(res, func(i, j int) bool { return res[i].Start.Before(res[j].Start) })
	var out []run
	for _, r := range res {
		for _, wr := range r.Workloads {
			out = append(out, run{seed: r.Seed, smoke: r.Smoke, trace: r.Trace, wr: wr})
		}
	}
	return out, nil
}

// values collects one metric of one workload over a side's untraced
// runs, in start order.
func values(runs []run, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if r.trace || r.wr.Name != workload {
			continue
		}
		if m, ok := r.wr.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

type row struct {
	a, b    string
	pairs   int
	win     float64
	change  float64 // relative change of B's median, positive = worse
	verdict string
}

// judge applies the measuring rules: pair the i-th run of each side;
// a gain needs B to win at least nine tenths of at least ten pairs and
// its median to differ by more than A's interquartile spread; a metric
// whose own spread exceeds its bound is unresolved unless every B run
// beats every A run; otherwise B's median may be worse by at most the
// bound.
func judge(m metricDef, av, bv []float64) row {
	lower := m.Better != "higher"
	better := func(x, y float64) bool { return (lower && x < y) || (!lower && x > y) }
	n := min(len(av), len(bv))
	wins := 0
	for i := 0; i < n; i++ {
		if better(bv[i], av[i]) {
			wins++
		}
	}
	sa, sb := summarize(av), summarize(bv)
	r := row{
		a:     fmt.Sprintf("%.5g [%.5g, %.5g]", sa.Median, sa.Q1, sa.Q3),
		b:     fmt.Sprintf("%.5g [%.5g, %.5g]", sb.Median, sb.Q1, sb.Q3),
		pairs: n,
		win:   float64(wins) / float64(n),
	}
	r.change = (sb.Median - sa.Median) / sa.Median
	if !lower {
		r.change = -r.change
	}
	spread := sa.Q3 - sa.Q1
	allBetter := true
	for _, x := range bv {
		for _, y := range av {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case n < 10:
		r.verdict = "unresolved (fewer than 10 pairs)"
	case r.win >= 0.9 && math.Abs(sb.Median-sa.Median) > spread:
		r.verdict = "improved"
	case spread/sa.Median > m.Bound:
		if allBetter {
			r.verdict = "improved"
		} else {
			r.verdict = "unresolved (spread exceeds bound)"
		}
	case r.change > m.Bound:
		r.verdict = "worse"
	default:
		r.verdict = "unchanged"
	}
	return r
}

// outputsChanged compares, for every workload and seed both sides ran
// at the same scale, the output digest and the deterministic engine
// counts, which must match exactly.
func outputsChanged(a, b []run) string {
	type key struct {
		workload string
		seed     uint64
		smoke    bool
	}
	first := map[key]*workloadResult{}
	for _, r := range a {
		k := key{r.wr.Name, r.seed, r.smoke}
		if first[k] == nil && r.wr.Digest != "" {
			first[k] = r.wr
		}
	}
	var diffs []string
	compared := 0
	for _, r := range b {
		wa := first[key{r.wr.Name, r.seed, r.smoke}]
		if wa == nil || r.wr.Digest == "" {
			continue
		}
		compared++
		if wa.Digest != r.wr.Digest {
			diffs = append(diffs, fmt.Sprintf("%s seed %d digest %s -> %s", r.wr.Name, r.seed, wa.Digest, r.wr.Digest))
			continue
		}
		if isServe(r.wr.Name) {
			continue // a server's per-request counts depend on timing
		}
		for c, v := range wa.Counts {
			if r.wr.Counts[c] != v {
				diffs = append(diffs, fmt.Sprintf("%s seed %d %s %g -> %g", r.wr.Name, r.seed, c, v, r.wr.Counts[c]))
			}
		}
	}
	switch {
	case compared == 0:
		return "unknown (no workload and seed in common)"
	case len(diffs) > 0:
		sort.Strings(diffs)
		return "yes: " + strings.Join(diffs, "; ")
	}
	return fmt.Sprintf("no (%d runs checked)", compared)
}
