package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/scenario"
)

// cmdFleet dispatches the fleet subcommands:
//
//	cachepart fleet run   [flags] file.json...
//	cachepart fleet check [flags] file.json...
//
// Both accept the whole examples/scenarios/ glob: files without a
// fleet block are skipped with a note, so the fleet and single-machine
// scenario libraries can live side by side.
func cmdFleet(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("fleet: want 'run' or 'check' (see 'cachepart help')")
	}
	switch args[0] {
	case "run":
		return fleetRun(args[1:])
	case "check":
		return fleetCheck(args[1:])
	default:
		return fmt.Errorf("fleet: unknown subcommand %q (want run or check)", args[0])
	}
}

var fleetValueFlags = map[string]bool{
	"scale": true, "parallel": true, "policy": true, "partition": true,
	"machines": true, "cache-dir": true, "fidelity": true, "fast-margin": true,
	"trace": true,
}

// splitPolicies turns the -policy comma list into the override list
// core applies to a fleet definition.
func splitPolicies(policy string) []string {
	if policy == "" {
		return nil
	}
	parts := strings.Split(policy, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

func fleetRun(args []string) error {
	fs := flag.NewFlagSet("fleet run", flag.ExitOnError)
	scale := fs.Float64("scale", 0, "instruction scale (0 = default)")
	parallel := fs.Int("parallel", 0, "worker budget for simulation batches and policy episodes (0 = GOMAXPROCS, 1 = serial)")
	quick := fs.Bool("quick", false, "reduced scale for smoke runs")
	policy := fs.String("policy", "", "comma-separated consolidation policies to evaluate (override the file)")
	part := fs.String("partition", "", "comma-separated partition policies to run the fleet under (override the file)")
	machines := fs.Int("machines", 0, "override the pool size")
	fidelity := fs.String("fidelity", "", "oracle tier: exact, fast, or auto (override the file)")
	fastMargin := fs.Float64("fast-margin", 0, "auto's exact re-simulation band around slowdown_limit (0 = file's, default 0.05)")
	cacheDir := fs.String("cache-dir", "", "persistent result store directory")
	jsonOut := fs.Bool("json", false, "emit the versioned report envelope as JSON (one object per run)")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON of the invocation to FILE")
	traceSummary := fs.Bool("trace-summary", false, "print a per-span wall time breakdown to stderr")
	flagArgs, files := splitFlags(args, fleetValueFlags)
	if err := fs.Parse(flagArgs); err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("fleet run: no scenario files given")
	}
	cfg := core.RunConfig{
		Scale: *scale, Quick: *quick, Parallelism: *parallel, CacheDir: *cacheDir,
		Policies: splitPolicies(*policy), Machines: *machines,
		Fidelity: *fidelity, FastMargin: *fastMargin,
	}
	// One session across files AND partition modes: fleets sharing
	// applications — or modes sharing baselines — deduplicate in the
	// memo cache, and each persistent-store key is read from disk at
	// most once per invocation, so footer disk hits count unique keys
	// rather than per-mode requests.
	tr := newRunTracer(*tracePath, *traceSummary)
	sess, err := core.NewSessionWith(cfg, tr)
	if err != nil {
		return err
	}

	partitions := []string{""}
	if *part != "" {
		partitions = strings.Split(*part, ",")
		for i := range partitions {
			partitions[i] = strings.TrimSpace(partitions[i])
			if partitions[i] == "" {
				return fmt.Errorf("fleet run: empty partition mode in -partition %q", *part)
			}
		}
	}
	ran := 0
	for _, path := range files {
		for _, mode := range partitions {
			s, err := scenario.ParseFile(path)
			if err != nil {
				return err
			}
			if !s.IsFleet() {
				fmt.Fprintf(os.Stderr, "%s: not a fleet scenario, skipped (use 'cachepart scenario run')\n", path)
				break
			}
			runCfg := cfg
			runCfg.Partition = mode
			res, err := sess.RunScenario(s, runCfg)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			ran++
			emitRun(res, *jsonOut, cfg.CacheDir != "")
		}
	}
	if ran == 0 {
		return fmt.Errorf("fleet run: no fleet scenarios among the given files")
	}
	return finishTrace(tr, *tracePath, *traceSummary)
}

func fleetCheck(args []string) error {
	fs := flag.NewFlagSet("fleet check", flag.ExitOnError)
	policy := fs.String("policy", "", "override the policies before checking")
	part := fs.String("partition", "", "override the partition mode before checking")
	machines := fs.Int("machines", 0, "override the pool size before checking")
	fidelity := fs.String("fidelity", "", "override the oracle tier before checking")
	flagArgs, files := splitFlags(args, fleetValueFlags)
	if err := fs.Parse(flagArgs); err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("fleet check: no scenario files given")
	}
	cfg := core.RunConfig{
		Policies: splitPolicies(*policy), Partition: *part, Machines: *machines,
		Fidelity: *fidelity,
	}
	for _, path := range files {
		s, err := scenario.ParseFile(path)
		if err != nil {
			return err
		}
		if !s.IsFleet() {
			fmt.Fprintf(os.Stderr, "%s: not a fleet scenario, skipped\n", path)
			continue
		}
		if err := core.ApplyOverrides(s, cfg); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		out, err := fleet.Describe(s.Name, s.Fleet)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Printf("%s: %s", path, out)
	}
	return nil
}
