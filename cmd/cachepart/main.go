// Command cachepart drives the cache-partitioning study: it lists the
// workload catalog, runs individual applications or consolidated pairs
// on the simulated way-partitionable platform, and regenerates every
// table and figure of the paper's evaluation.
//
// Usage:
//
//	cachepart list
//	cachepart policies [-names]
//	cachepart run  -app 429.mcf [-threads 4] [-ways 0] [-scale 0.002]
//	cachepart pair -fg 429.mcf -bg ferret [-policy dynamic] [-scale 0.002] [-parallel N]
//	cachepart exp  -id fig9 [-scale 0.002] [-quick] [-parallel N]
//	cachepart exp  -id all  [-quick]
//	cachepart scenario run examples/scenarios/latency-3batch.json [-quick] [-policy dynamic]
//	cachepart scenario check examples/scenarios/*.json
//	cachepart fleet run examples/scenarios/fleet-consolidation-50.json [-quick]
//	cachepart fleet run examples/scenarios/fleet-utility-50.json [-quick] [-partition shared,utility]
//	cachepart fleet run examples/scenarios/fleet-mega-10k.json [-quick] [-fidelity auto]
//	cachepart fleet check examples/scenarios/*.json
//
// Partition policies (-policy, -partition, scenario "partition"
// blocks) come from the pluggable registry in internal/partition;
// `cachepart policies` lists them.
//
// Experiment ids: fig1..fig13, table1, table2, table3, headline, the
// abl-* ablation studies, and all.
//
// -parallel sets the experiment engine's worker count (0 = GOMAXPROCS,
// 1 = serial). Output is byte-identical at any setting; each
// experiment's footer reports the effective speedup the worker pool and
// memo cache delivered.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/workload"
)

// engineFooter renders the per-run engine stats line from a counter
// delta. Disk hits are reported only when a persistent store is active
// (-cache-dir), so footers stay byte-stable for runs without one.
func engineFooter(wall float64, before, after sched.Stats, diskEnabled bool) string {
	speedup := 0.0
	if wall > 0 {
		speedup = (after.BusySeconds - before.BusySeconds) / wall
	}
	disk := ""
	if diskEnabled {
		disk = fmt.Sprintf(", %d disk hits", after.DiskHits-before.DiskHits)
	}
	return fmt.Sprintf("(host time %.1fs; %d sims, %d memo hits%s; %.1fx speedup (sim-busy/wall) at parallelism %d)\n\n",
		wall, after.Simulations-before.Simulations, after.MemoHits-before.MemoHits,
		disk, speedup, after.Parallelism)
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "policies":
		err = cmdPolicies(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "pair":
		err = cmdPair(os.Args[2:])
	case "exp":
		err = cmdExp(os.Args[2:])
	case "scenario":
		err = cmdScenario(os.Args[2:])
	case "fleet":
		err = cmdFleet(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "version":
		err = cmdVersion()
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cachepart:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  cachepart list
  cachepart policies [-names]
  cachepart run  -app NAME [-threads N] [-ways W] [-scale S] [-cache-dir DIR]
  cachepart pair -fg NAME -bg NAME [-policy P] [-scale S] [-parallel N] [-cache-dir DIR]
  cachepart exp  -id fig1..fig13|table1|table2|table3|headline|all [-scale S] [-quick] [-parallel N] [-cache-dir DIR]
  cachepart scenario run   [-scale S] [-quick] [-parallel N] [-policy P] [-cache-dir DIR] [-json] FILE.json...
  cachepart scenario check [-policy P] FILE.json...
  cachepart fleet run   [-scale S] [-quick] [-parallel N] [-policy P,P] [-partition M,M] [-machines N] [-fidelity F] [-fast-margin M] [-cache-dir DIR] [-json] FILE.json...
  cachepart fleet check [-policy P,P] [-partition M] [-machines N] [-fidelity F] FILE.json...
  cachepart serve [-addr HOST:PORT] [-scale S] [-quick] [-parallel N] [-cache-dir DIR] [-queue N] [-concurrency N] [-rate R] [-burst N] [-pprof]
  cachepart version

partition policies are pluggable: 'cachepart policies' lists the
registry (shared, fair, biased, explicit, dynamic, utility, ...), and
every -policy/-partition flag accepts any registered name. Scenario
files parameterize them with "policy": {"name": N, "params": {...}}.

scenario runs declarative JSON scenario files (N-job mixes with roles,
placement, and a partition policy; see examples/scenarios/ and
DESIGN.md). -policy overrides the file's partition policy. Skip
notices for mixed globs go to stderr, so piped output stays clean.

fleet runs scenario files with a fleet block: N machines under
open-loop load, compared across consolidation policies (spread-idle,
pack-partition, util-target) with p50/p95/p99 request slowdown,
machines used, utilization, and energy per policy. -partition accepts
a comma list to replay the same fleet under several partition policies
in one invocation (one engine: shared baselines simulate once).
-fidelity picks the oracle tier: exact simulates every co-location,
fast predicts them all analytically (MRC+CPI model) from one profiling
run per application, and auto screens with fast and re-simulates only
placements whose predicted slowdown lands within -fast-margin (default
0.05) of the slowdown limit — the tier for 10k-machine fleets.

-parallel sets the engine's one worker budget (0 = GOMAXPROCS,
1 = serial): simulation batches and a fleet run's policy episodes each
fan out over at most N workers. Output is byte-identical at any
setting.

-cache-dir persists simulation results to DIR (content-addressed by
memo key and engine version): repeated invocations — across processes —
skip simulations they have already run and print identical reports. The
footer then also reports disk hits.

-json replaces the text report + footer with the versioned report
envelope (schema_version, engine version, kind, per-run engine stats,
report body) — the same object 'cachepart serve' returns from
GET /v1/runs/{id}/report.

serve runs the long-running simulation service: scenario/fleet JSON is
submitted via POST /v1/runs and executes on one warm engine, so
concurrent clients share the in-memory memo and the -cache-dir store.
See README "Serving" for the endpoint table and a curl walkthrough.
-pprof additionally exposes Go's profiler under /debug/pprof/.

scenario run and fleet run accept -trace FILE to write a Chrome
trace_event JSON of the invocation (load it in chrome://tracing or
https://ui.perfetto.dev) and -trace-summary to print a per-span wall
time breakdown to stderr. Tracing never changes report bytes.

version prints the engine version (the persistent store's content key
namespace) and the report envelope's schema version.`)
}

// cmdVersion prints the two version numbers a deployment cares about:
// the engine version that namespaces persistent-store keys, and the
// schema version of the report envelope the CLI and server emit.
func cmdVersion() error {
	fmt.Printf("engine_version  %s\n", sched.EngineVersion)
	fmt.Printf("schema_version  %d\n", core.SchemaVersion)
	return nil
}

// cmdPolicies lists the partition-policy registry. -names prints bare
// names only (one per line), the machine-readable form CI's
// policy-matrix smoke iterates.
func cmdPolicies(args []string) error {
	fs := flag.NewFlagSet("policies", flag.ExitOnError)
	names := fs.Bool("names", false, "print bare policy names only")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, name := range partition.Names() {
		if *names {
			fmt.Println(name)
			continue
		}
		fmt.Printf("%-10s %s\n", name, partition.About(name))
	}
	return nil
}

func cmdList() error {
	fmt.Printf("%-18s %-7s %-8s %-9s %-6s %s\n",
		"name", "suite", "threads", "maxWS", "APKI", "phases")
	for _, suite := range workload.Suites() {
		for _, p := range workload.BySuite(suite) {
			fmt.Printf("%-18s %-7s %-8d %-9s %-6.0f %d\n",
				p.Name, p.Suite, p.MaxThreads,
				fmt.Sprintf("%.1fMB", float64(p.MaxWorkingSet())/(1<<20)),
				p.MeanAPKI(), len(p.Phases))
		}
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	app := fs.String("app", "", "application name (see 'cachepart list')")
	threads := fs.Int("threads", 4, "software threads (capped by the app)")
	ways := fs.Int("ways", 0, "LLC ways allocated (0 = all 12)")
	scale := fs.Float64("scale", 0, "instruction scale (0 = default)")
	cacheDir := fs.String("cache-dir", "", "persistent result store directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *app == "" {
		return fmt.Errorf("run: -app is required")
	}
	sess, err := core.NewSession(core.RunConfig{Scale: *scale, CacheDir: *cacheDir})
	if err != nil {
		return err
	}
	t0 := time.Now()
	p, err := workload.ByName(*app)
	if err != nil {
		return err
	}
	r := sess.Runner()
	if assoc := r.MachineConfig().Hier.LLC.Assoc; *ways < 0 || *ways > assoc {
		return fmt.Errorf("run: ways %d out of [0,%d]", *ways, assoc)
	}
	res := r.Run(sched.SingleSpec{App: p, Threads: *threads, Ways: *ways})
	j := res.Jobs[0]
	fmt.Printf("app=%s threads=%d ways=%d\n", p.Name, j.Threads, *ways)
	fmt.Printf("  time       %.4f s (simulated)\n", j.Seconds)
	fmt.Printf("  IPC        %.2f (aggregate)\n", j.IPC)
	fmt.Printf("  LLC MPKI   %.2f   LLC APKI %.2f\n", j.LLCMPKI, j.LLCAPKI)
	fmt.Printf("  energy     %.2f J socket, %.2f J wall\n", res.Energy.SocketJoules, res.Energy.WallJoules)
	printEngineLine(sess, *cacheDir)
	fmt.Printf("  (host time %.2fs)\n", time.Since(t0).Seconds())
	return nil
}

// printEngineLine reports cache activity for the single-run commands
// when a persistent store is active (run/pair have no batch footer, but
// -cache-dir users still need to see their disk hits).
func printEngineLine(sess *core.Session, cacheDir string) {
	if cacheDir == "" {
		return
	}
	st := sess.Stats()
	fmt.Printf("  engine     %d sims, %d memo hits, %d disk hits\n",
		st.Simulations, st.MemoHits, st.DiskHits)
}

// cmdPair prices a partition policy on the §5 pair — the foreground on
// cores 0-1, the background looping on cores 2-3 — through its
// partition plan, reporting slowdown against the §5.1 baseline (the
// foreground alone on 2 cores / 4 hyperthreads with the full LLC).
func cmdPair(args []string) error {
	fs := flag.NewFlagSet("pair", flag.ExitOnError)
	fg := fs.String("fg", "", "foreground application")
	bg := fs.String("bg", "", "background application")
	policy := fs.String("policy", "dynamic", "any registered partition policy (see 'cachepart policies')")
	scale := fs.Float64("scale", 0, "instruction scale (0 = default)")
	parallel := fs.Int("parallel", 0, "worker count (0 = GOMAXPROCS, 1 = serial)")
	cacheDir := fs.String("cache-dir", "", "persistent result store directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *fg == "" || *bg == "" {
		return fmt.Errorf("pair: -fg and -bg are required")
	}
	sess, err := core.NewSession(core.RunConfig{Scale: *scale, Parallelism: *parallel, CacheDir: *cacheDir})
	if err != nil {
		return err
	}
	t0 := time.Now()
	fp, err := workload.ByName(*fg)
	if err != nil {
		return err
	}
	bp, err := workload.ByName(*bg)
	if err != nil {
		return err
	}
	pol, err := partition.New(*policy, nil)
	if err != nil {
		return err
	}
	r := sess.Runner()
	plan, err := partition.PairPlan(pol, r.MachineConfig(), r.Scale(), fp, bp)
	if err != nil {
		return err
	}
	results := r.RunBatch(append([]sched.Spec{sched.AloneHalfSpec(fp)}, plan.Specs()...))
	alone := results[0].Jobs[0].Seconds
	out := plan.Harvest(results[1:], alone)
	res := out.Main
	fmt.Printf("fg=%s bg=%s policy=%s\n", fp.Name, bp.Name, *policy)
	if fgW := out.Ways(0); fgW > 0 {
		fmt.Printf("  LLC split     fg %d ways / bg %d ways\n", fgW, out.Ways(1))
	} else {
		fmt.Printf("  LLC split     fully shared\n")
	}
	fmt.Printf("  fg time       %.4f s (slowdown %+.1f%% vs alone)\n",
		res.Jobs[0].Seconds, (res.Jobs[0].Seconds/alone-1)*100)
	fmt.Printf("  bg throughput %.2f iterations during the fg run\n", res.Jobs[1].Iterations)
	fmt.Printf("  energy        %.2f J socket, %.2f J wall\n", res.Energy.SocketJoules, res.Energy.WallJoules)
	if out.Reallocations > 0 { // online policies (dynamic, utility, ...)
		fmt.Printf("  reallocations %d\n", out.Reallocations)
	}
	printEngineLine(sess, *cacheDir)
	fmt.Printf("  (host time %.2fs)\n", time.Since(t0).Seconds())
	return nil
}

func cmdExp(args []string) error {
	fs := flag.NewFlagSet("exp", flag.ExitOnError)
	id := fs.String("id", "", "experiment id (fig1..fig13, table1..3, headline, all)")
	scale := fs.Float64("scale", 0, "instruction scale (0 = default)")
	quick := fs.Bool("quick", false, "representatives-only scope (fast)")
	parallel := fs.Int("parallel", 0, "worker count (0 = GOMAXPROCS, 1 = serial)")
	cacheDir := fs.String("cache-dir", "", "persistent result store directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *id == "" {
		return fmt.Errorf("exp: -id is required")
	}
	cfg := core.RunConfig{Scale: *scale, Parallelism: *parallel, CacheDir: *cacheDir}
	if err := cfg.Validate(); err != nil {
		return err
	}
	opt := sched.Options{Scale: cfg.Scale, Parallelism: cfg.Parallelism, CacheDir: cfg.CacheDir}
	var ctx *experiments.Context
	if *quick {
		ctx = experiments.NewQuickContext(opt)
	} else {
		ctx = experiments.NewContext(opt)
	}
	// The footer reports engine deltas per experiment: simulations run,
	// memoized results reused, and the effective speedup (summed
	// executed-simulation time / wall time — the overlap the worker
	// pool achieved; memo hits cost ~nothing in both terms, so an
	// all-cached experiment reads ~0x). It is printed outside the table
	// text so tables stay byte-identical at any -parallel setting.
	runOne := func(name string) error {
		before := ctx.R.Stats()
		t0 := time.Now()
		out, err := runExperiment(ctx, name)
		if err != nil {
			return err
		}
		wall := time.Since(t0).Seconds()
		fmt.Print(out)
		fmt.Print(engineFooter(wall, before, ctx.R.Stats(), *cacheDir != ""))
		return nil
	}
	if *id == "all" {
		for _, name := range experimentIDs {
			if err := runOne(name); err != nil {
				return err
			}
		}
		return nil
	}
	return runOne(*id)
}

var experimentIDs = []string{
	"fig1", "table1", "fig2", "table2", "fig3", "fig4",
	"fig5", "table3", "fig6", "fig7", "fig8", "fig9",
	"fig10", "fig11", "fig12", "fig13", "headline",
	"abl-small-llc", "abl-bwqos", "abl-indexing", "abl-replacement",
	"abl-inclusion", "abl-prefetchers", "abl-multibg",
}

func runExperiment(ctx *experiments.Context, id string) (string, error) {
	switch id {
	case "fig1":
		return ctx.Fig1ThreadScalability().String(), nil
	case "table1":
		t, _ := ctx.Table1Scalability()
		return t.String(), nil
	case "fig2":
		return ctx.Fig2LLCSensitivity().String(), nil
	case "table2":
		return ctx.Table2LLCUtility().Table.String(), nil
	case "fig3":
		return ctx.Fig3Prefetchers().String(), nil
	case "fig4":
		return ctx.Fig4Bandwidth().String(), nil
	case "fig5":
		res := ctx.Fig5Clustering()
		return res.Table.String() + "\ndendrogram:\n" + res.Dendrogram, nil
	case "table3":
		return ctx.Fig5Clustering().Table.String(), nil
	case "fig6":
		return ctx.Fig6AllocationSpace().String(), nil
	case "fig7":
		return ctx.Fig7YieldableCapacity().String(), nil
	case "fig8":
		return ctx.Fig8Heatmap(nil, nil).Table.String(), nil
	case "fig9":
		return ctx.Fig9StaticPolicies().Table.String(), nil
	case "fig10":
		e, _, _ := ctx.Fig10and11Consolidation()
		return e.String(), nil
	case "fig11":
		_, w, _ := ctx.Fig10and11Consolidation()
		return w.String(), nil
	case "fig12":
		return ctx.Fig12Phases().String(), nil
	case "fig13":
		return ctx.Fig13DynamicThroughput().Table.String(), nil
	case "headline":
		return ctx.Headline().Table.String(), nil
	case "abl-small-llc":
		return ctx.AblationSmallLLC().String(), nil
	case "abl-bwqos":
		return ctx.AblationBandwidthQoS().String(), nil
	case "abl-indexing":
		return ctx.AblationIndexing().String(), nil
	case "abl-replacement":
		return ctx.AblationReplacement().String(), nil
	case "abl-inclusion":
		return ctx.AblationInclusion().String(), nil
	case "abl-prefetchers":
		return ctx.AblationPrefetchers().String(), nil
	case "abl-multibg":
		return ctx.AblationMultiBackground().String(), nil
	default:
		return "", fmt.Errorf("unknown experiment %q", id)
	}
}
