package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/partition"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// TestRunPairGolden pins the bytes of the single-run commands: `run`
// for one application and `pair` under every registered partition
// policy, at a small scale, with the wall-clock host-time line
// filtered. Regenerate with -update-golden.
func TestRunPairGolden(t *testing.T) {
	invocations := [][]string{{"run", "-app", "429.mcf", "-scale", "2e-4"}}
	for _, pol := range partition.Names() {
		invocations = append(invocations,
			[]string{"pair", "-fg", "429.mcf", "-bg", "ferret", "-scale", "2e-4", "-policy", pol})
	}
	var sb strings.Builder
	for _, args := range invocations {
		cmd := cmdRun
		if args[0] == "pair" {
			cmd = cmdPair
		}
		stdout, stderr, err := captureStreams(t, func() error { return cmd(args[1:]) })
		if err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if stderr != "" {
			t.Errorf("%v wrote to stderr: %s", args, stderr)
		}
		fmt.Fprintf(&sb, "$ cachepart %s\n", strings.Join(args, " "))
		for _, line := range strings.SplitAfter(stdout, "\n") {
			if !strings.Contains(line, "(host time") {
				sb.WriteString(line)
			}
		}
	}

	got := sb.String()
	path := filepath.Join("testdata", "run_pair.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Errorf("run/pair output drifted from golden\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}
