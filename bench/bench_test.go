package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the bench binary when a
// workload child is re-executed.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

func TestQuartilesMatchPython(t *testing.T) {
	// Reference values from Python's statistics.quantiles(xs, n=4).
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{2.5, 9, 4, 4, 7, 1.5, 3}, 2.5, 7},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	m := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.1}
	series := func(base, step float64) []float64 {
		var xs []float64
		for i := 0; i < 10; i++ {
			xs = append(xs, base+step*float64(i%3))
		}
		return xs
	}
	a := series(100, 1)
	for _, tc := range []struct {
		name string
		b    []float64
		want string
	}{
		{"faster", series(80, 1), "improved"},
		{"same", series(100, 1), "unchanged"},
		{"slower", series(120, 1), "worse"},
		{"few pairs", series(80, 1)[:5], "unresolved (fewer than 10 pairs)"},
	} {
		if got := judge(m, a, tc.b).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	if got := judge(m, noisy, series(101, 1)).verdict; got != "unresolved (spread exceeds bound)" {
		t.Errorf("noisy parent: verdict %q", got)
	}
}

// smoke runs the benchmark in-process over every workload and returns
// its results file and last output line.
func smoke(t *testing.T, seed, trace string, extra ...string) (resultsFile, outcome) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "results.json")
	var stdout, stderr bytes.Buffer
	args := append([]string{"--smoke", "--root", "..", "--seed", seed, "--trace", trace, "--out", out}, extra...)
	code := benchMain(args, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("seed %s trace %s: exit %d\n%s", seed, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line outcome
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last output line: %v\n%s\n%s", err, stdout.String(), stderr.String())
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var res resultsFile
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	return res, line
}

// TestSmoke runs every workload briefly at a fifth of quick scale: the
// output line carries every metric BENCHMARK.json names with its unit,
// nothing fails, reports and engine counts repeat exactly across runs
// and between the untraced and traced passes, and the seed reaches the
// inputs.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	plain, plainLine := smoke(t, "1", "0")
	traced, tracedLine := smoke(t, "1", "1")
	// Only the set-up digests matter for the other seed.
	other, _ := smoke(t, "2", "0", "--seconds", "0.05")

	for _, c := range []struct {
		line outcome
		defs []metricDef
	}{{plainLine, spec.EndToEnd}, {tracedLine, spec.PerLayer}} {
		if !c.line.Correct || c.line.Failed != 0 || c.line.Attempted == 0 {
			t.Errorf("outcome %+v", c.line)
		}
		for _, w := range workloadDefs {
			for _, d := range c.defs {
				m, ok := c.line.Metrics[w.name+"/"+d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s: metric %s missing or unit %q, want %q", w.name, d.Name, m.Unit, d.Unit)
				}
			}
		}
	}
	for i, w := range workloadDefs {
		p, tr, o := plain.Workloads[i], traced.Workloads[i], other.Workloads[i]
		if p.FailFrac != 0 || tr.FailFrac != 0 {
			t.Errorf("%s: fail_frac %g untraced, %g traced", w.name, p.FailFrac, tr.FailFrac)
		}
		if p.Digest == "" || p.Digest != tr.Digest {
			t.Errorf("%s: digest %q untraced, %q traced", w.name, p.Digest, tr.Digest)
		}
		if o.Digest == p.Digest {
			t.Errorf("%s: seed 2 reproduced seed 1's digest %s", w.name, p.Digest)
		}
		if !isServe(w.name) {
			for k, v := range p.Counts {
				if tr.Counts[k] != v {
					t.Errorf("%s: %s %g untraced, %g traced", w.name, k, v, tr.Counts[k])
				}
			}
		}
	}
	if traced.Workloads[0].TraceFile == "" {
		t.Error("traced pass wrote no Chrome trace")
	}
}
