package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// cmdScenario dispatches the scenario subcommands:
//
//	cachepart scenario run   [flags] file.json...
//	cachepart scenario check [flags] file.json...
func cmdScenario(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("scenario: want 'run' or 'check' (see 'cachepart help')")
	}
	switch args[0] {
	case "run":
		return scenarioRun(args[1:])
	case "check":
		return scenarioCheck(args[1:])
	default:
		return fmt.Errorf("scenario: unknown subcommand %q (want run or check)", args[0])
	}
}

// splitFlags separates flag arguments from positional file arguments so
// both "scenario run -quick a.json" and "scenario run a.json -quick"
// work (shell globs put the files first).
func splitFlags(args []string, valueFlags map[string]bool) (flags, files []string) {
	for i := 0; i < len(args); i++ {
		a := args[i]
		if !strings.HasPrefix(a, "-") {
			files = append(files, a)
			continue
		}
		flags = append(flags, a)
		name := strings.TrimLeft(a, "-")
		if eq := strings.IndexByte(name, '='); eq >= 0 {
			continue // -flag=value form carries its own value
		}
		if valueFlags[name] && i+1 < len(args) {
			i++
			flags = append(flags, args[i])
		}
	}
	return flags, files
}

var scenarioValueFlags = map[string]bool{
	"scale": true, "parallel": true, "policy": true, "cache-dir": true,
	"trace": true,
}

// newRunTracer builds the tracer a run command needs — nil unless
// -trace or -trace-summary asked for one, so untraced runs pay nothing.
func newRunTracer(tracePath string, traceSummary bool) *obs.Tracer {
	if tracePath == "" && !traceSummary {
		return nil
	}
	return obs.New(0)
}

// finishTrace emits a run command's tracing outputs: the per-span wall
// time summary to stderr (piped report output stays clean) and the
// Chrome trace_event JSON to -trace's file.
func finishTrace(tr *obs.Tracer, tracePath string, traceSummary bool) error {
	if tr == nil {
		return nil
	}
	if traceSummary {
		fmt.Fprint(os.Stderr, tr.Summary())
	}
	if tracePath != "" {
		if err := os.WriteFile(tracePath, tr.ChromeTrace(), 0o644); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	return nil
}

// emitRun prints one run outcome: the versioned envelope as JSON, or
// the plain report followed by the engine footer. Both CLI run
// subcommands and the server share the envelope, so -json output is
// byte-identical to the server's report endpoint for the same spec.
func emitRun(res *core.RunResult, jsonOut, diskEnabled bool) {
	if jsonOut {
		os.Stdout.Write(res.Envelope.JSON())
		return
	}
	fmt.Print(res.Envelope.Report)
	fmt.Print(engineFooter(res.WallSeconds, res.Before, res.After, diskEnabled))
}

func scenarioRun(args []string) error {
	fs := flag.NewFlagSet("scenario run", flag.ExitOnError)
	scale := fs.Float64("scale", 0, "instruction scale (0 = default)")
	parallel := fs.Int("parallel", 0, "worker count (0 = GOMAXPROCS, 1 = serial)")
	quick := fs.Bool("quick", false, "reduced scale for smoke runs")
	policy := fs.String("policy", "", "override the scenario's partition policy (any registered policy; see 'cachepart policies')")
	cacheDir := fs.String("cache-dir", "", "persistent result store directory")
	jsonOut := fs.Bool("json", false, "emit the versioned report envelope as JSON (one object per scenario)")
	tracePath := fs.String("trace", "", "write a Chrome trace_event JSON of the invocation to FILE")
	traceSummary := fs.Bool("trace-summary", false, "print a per-span wall time breakdown to stderr")
	flagArgs, files := splitFlags(args, scenarioValueFlags)
	if err := fs.Parse(flagArgs); err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("scenario run: no scenario files given")
	}
	cfg := core.RunConfig{
		Scale: *scale, Quick: *quick, Parallelism: *parallel,
		CacheDir: *cacheDir, Policy: *policy,
	}
	// One session for every file: scenarios sharing configurations (or
	// baselines) deduplicate through the engine's memo cache.
	tr := newRunTracer(*tracePath, *traceSummary)
	sess, err := core.NewSessionWith(cfg, tr)
	if err != nil {
		return err
	}

	ran := 0
	for _, path := range files {
		s, err := scenario.ParseFile(path)
		if err != nil {
			return err
		}
		if s.IsFleet() {
			// The notice goes to stderr: piped report output must stay
			// parseable when a glob mixes fleet and plain scenarios.
			fmt.Fprintf(os.Stderr, "%s: fleet scenario, skipped (use 'cachepart fleet run')\n\n", path)
			continue
		}
		ran++
		res, err := sess.RunScenario(s, cfg)
		if err != nil {
			return err
		}
		emitRun(res, *jsonOut, cfg.CacheDir != "")
	}
	if ran == 0 {
		return fmt.Errorf("scenario run: no single-machine scenarios among the given files")
	}
	return finishTrace(tr, *tracePath, *traceSummary)
}

func scenarioCheck(args []string) error {
	fs := flag.NewFlagSet("scenario check", flag.ExitOnError)
	policy := fs.String("policy", "", "override the scenario's partition policy before checking")
	flagArgs, files := splitFlags(args, scenarioValueFlags)
	if err := fs.Parse(flagArgs); err != nil {
		return err
	}
	if len(files) == 0 {
		return fmt.Errorf("scenario check: no scenario files given")
	}
	for _, path := range files {
		s, err := scenario.ParseFile(path)
		if err != nil {
			return err
		}
		if s.IsFleet() {
			fmt.Fprintf(os.Stderr, "%s: fleet scenario, skipped (use 'cachepart fleet check')\n", path)
			continue
		}
		if err := core.ApplyOverrides(s, core.RunConfig{Policy: *policy}); err != nil {
			return err
		}
		p, err := s.Plan(machine.Default())
		if err != nil {
			return err
		}
		fmt.Printf("%s: ok — %q, %d jobs on %d cores, policy %s\n",
			path, s.Name, len(p.Instances), p.Config.Cores, s.PartitionName())
		for _, inst := range p.Instances {
			fmt.Printf("  %-8s %-8s %-18s threads=%d slots=%v ways=%s\n",
				inst.Seed, inst.Role, inst.App.Name, inst.Threads, inst.Slots, inst.WaysLabel())
		}
	}
	return nil
}
