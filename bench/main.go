// Command bench is the repository benchmark. It runs six workloads —
// cold scenario mixes, cold and replayed fleets, a warm 10,000-machine
// fleet, and the HTTP service under open-loop load at two rates — each
// in its own child process, and prints every end-to-end metric (or,
// with --trace 1, every per-layer metric) named in BENCHMARK.json.
//
//	go run . --workload mix-cold --seed 1 --seconds 15 --trace 0
//	go run . compare A B
//
// Run it from the repository root (or pass --root); see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// buildDir holds everything the benchmark builds and writes, inside the
// checkout (it is git-ignored).
const buildDir = ".bench_build"

// setupRepeats is how many times each run sets its workload up; the
// median is reported as setup_s.
const setupRepeats = 3

// serveSteps is serve-open's schedule: half the run at each rate. On a
// 2-core host one client with two connections keeps p90 within the
// 100 ms limit up to about 1,600 req/s. Light is about a fifth of that;
// heavy, about two fifths, is where queueing shows in the tail. Nearer
// saturation the median amplifies the host's own speed drift past any
// usable bound (its spread over ten runs was 0.22 at 1,000 req/s).
var serveSteps = []step{{"light", 300}, {"heavy", 650}}

type workloadDef struct {
	name  string
	steps []step // serving workloads only
}

var workloadDefs = []workloadDef{
	{name: "mix-cold"},
	{name: "fleet-cold"},
	{name: "fleet-replay"},
	{name: "fleet-mega-warm"},
	{name: "serve-open", steps: serveSteps},
}

func isServe(name string) bool { return strings.HasPrefix(name, "serve-") }

// metricDef is one metric declared in BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json, the single source of the workload and
// metric names, units and bounds.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(s.Workloads) != len(workloadDefs) {
		return nil, fmt.Errorf("BENCHMARK.json declares %d workloads, the benchmark runs %d", len(s.Workloads), len(workloadDefs))
	}
	for i, w := range s.Workloads {
		if w.Name != workloadDefs[i].name {
			return nil, fmt.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, w.Name, workloadDefs[i].name)
		}
	}
	return &s, nil
}

// metricValue is one metric as the last output line carries it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricRecord is one metric in results.json: its value and the
// distribution of the samples behind it.
type metricRecord struct {
	metricValue
	summary
}

// outcome is the last line of standard output, the machine-readable
// summary of the run.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultsFile is the full record of one invocation.
type resultsFile struct {
	Start     time.Time         `json:"start"`
	Seed      uint64            `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Smoke     bool              `json:"smoke,omitempty"`
	Host      hostInfo          `json:"host"`
	Workloads []*workloadResult `json:"workloads"`
}

func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "input seed: every generated input derives from it")
	seconds := fs.Float64("seconds", 0, "measured seconds per workload (0 = BENCHMARK.json run_seconds)")
	traceFlag := fs.Int("trace", 0, "1 = traced pass: per-layer metrics and a Chrome trace")
	out := fs.String("out", "", "results file (default under .bench_build/results)")
	smoke := fs.Bool("smoke", false, "self-test run: a fifth of quick scale, one set-up, about a second per workload")
	root := fs.String("root", ".", "repository root")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "bench: --trace must be 0 or 1")
		return 2
	}
	spec, err := loadSpec(*root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	var selected []workloadDef
	for _, w := range workloadDefs {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
		if *smoke {
			*seconds = 0.3
		}
	}

	start := time.Now()
	stem := fmt.Sprintf("%s-s%d-t%d-%d", *name, *seed, *traceFlag, start.UnixNano())
	if *out == "" {
		*out = filepath.Join(*root, buildDir, "results", stem+".json")
	}
	tmp := filepath.Join(*root, buildDir, "tmp", stem)
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	rc := runCtx{
		childOpts: childOpts{root: *root, seed: *seed, smoke: *smoke, tmp: tmp},
		seconds:   *seconds,
		traced:    *traceFlag == 1,
		setups:    setupRepeats,
	}
	if *smoke {
		rc.setups = 1
	}
	if rc.traced {
		rc.tracer = obs.New(traceLimit)
	}
	res := resultsFile{
		Start: start, Seed: *seed, Seconds: *seconds, Trace: rc.traced, Smoke: *smoke,
		Host: newHostInfo(*root, tmp),
	}
	for _, w := range selected {
		res.Workloads = append(res.Workloads, runWorkload(rc, w))
	}
	defs := spec.EndToEnd
	if rc.traced {
		defs = spec.PerLayer
		if err := ladderAndTrace(rc, res.Workloads, strings.TrimSuffix(*out, ".json")+".trace.json"); err != nil {
			for _, wr := range res.Workloads {
				wr.abort(err)
			}
		}
	}
	for _, wr := range res.Workloads {
		wr.finalize(defs)
	}
	res.Host.LoadAfter = loadAvg()

	b, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = writeFile(*out, append(b, '\n'))
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench: results:", err)
		return 1
	}
	printTable(stderr, res)
	fmt.Fprintf(stderr, "results: %s\n", *out)

	line := outcome{Correct: true, Metrics: map[string]metricValue{}}
	for _, wr := range res.Workloads {
		line.Correct = line.Correct && wr.Correct
		line.Attempted += wr.Attempted
		line.Failed += wr.Failed
		for k, v := range wr.Metrics {
			if len(res.Workloads) > 1 {
				k = wr.Name + "/" + k
			}
			line.Metrics[k] = v.metricValue
		}
	}
	lb, _ := json.Marshal(line) // finalize kept only finite values
	fmt.Fprintln(stdout, string(lb))
	if !line.Correct {
		return 1
	}
	return 0
}

// printTable writes a human-readable summary of every workload.
func printTable(w io.Writer, res resultsFile) {
	for _, wr := range res.Workloads {
		state := "ok"
		if !wr.Correct {
			state = "FAILED"
		}
		fmt.Fprintf(w, "== %s  %s  attempted %d, failed %d, digest %s\n", wr.Name, state, wr.Attempted, wr.Failed, wr.Digest)
		for _, e := range wr.Errors {
			fmt.Fprintf(w, "   error: %s\n", e)
		}
		names := make([]string, 0, len(wr.Metrics))
		for k := range wr.Metrics {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			m := wr.Metrics[k]
			fmt.Fprintf(w, "   %-26s %14.6g %-8s n=%-5d q1=%-12.6g q3=%.6g\n", k, m.Value, m.Unit, m.N, m.Q1, m.Q3)
		}
		ek := make([]string, 0, len(wr.Extra))
		for k := range wr.Extra {
			ek = append(ek, k)
		}
		sort.Strings(ek)
		for _, k := range ek {
			fmt.Fprintf(w, "   %-26s %14.6g\n", k, wr.Extra[k])
		}
	}
}

// runCtx is one invocation's settings as the workloads see them.
type runCtx struct {
	childOpts
	seconds float64
	traced  bool
	setups  int
	tracer  *obs.Tracer // this process's spans, traced pass only
}

// split divides the run: the whole of it untraced, or with --trace 1 a
// third untraced (the baseline for the tracing overhead), a third
// traced and a third on the ladder.
func (rc runCtx) split() (untraced, traced, ladder float64) {
	if !rc.traced {
		return rc.seconds, 0, 0
	}
	s := rc.seconds / 3
	return s, s, s
}

func (rc runCtx) childArgs(name string) []string {
	return []string{
		"-workload", name, "-seed", fmt.Sprint(rc.seed), "-root", rc.root,
		"-tmp", rc.tmp, fmt.Sprintf("-smoke=%t", rc.smoke),
	}
}

// newContext bounds one workload, children included, so a hung child
// cannot hold the run: under three minutes at the default run length.
func newContext(rc runCtx) (context.Context, context.CancelFunc) {
	d := max(170*time.Second, time.Duration(4*rc.seconds)*time.Second+60*time.Second)
	return context.WithTimeout(context.Background(), d)
}
