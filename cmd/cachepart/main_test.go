package main

import (
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/sched"
)

func quickCtx() *experiments.Context {
	return experiments.NewQuickContext(sched.Options{Scale: 5e-4})
}

func TestRunExperimentDispatch(t *testing.T) {
	ctx := quickCtx()
	ctx.Reps = ctx.Reps[:2]
	for _, id := range []string{"table1", "fig3", "fig7", "abl-indexing"} {
		out, err := runExperiment(ctx, id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(out, "==") {
			t.Fatalf("%s produced no table:\n%s", id, out)
		}
	}
}

func TestRunExperimentUnknown(t *testing.T) {
	if _, err := runExperiment(quickCtx(), "fig99"); err == nil {
		t.Fatal("unknown experiment id accepted")
	}
}

func TestExperimentIDsAllDispatch(t *testing.T) {
	// Every advertised id must resolve (we don't run them all here —
	// the dispatcher must simply know them; unknown ids error out
	// before any simulation starts, so a cheap probe suffices for the
	// cheap ones and the long ones are covered by the bench harness).
	cheap := map[string]bool{
		"fig2": true, "table1": true, "fig3": true, "fig4": true,
		"fig7": true, "abl-indexing": true, "abl-inclusion": true,
	}
	ctx := quickCtx()
	ctx.Reps = ctx.Reps[:2]
	for _, id := range experimentIDs {
		if !cheap[id] {
			continue
		}
		if _, err := runExperiment(ctx, id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
}

// TestCmdExpValidation: exp rejects negative engine flags with the
// same errors as run and pair, before any simulation starts.
func TestCmdExpValidation(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-id", "abl-indexing", "-quick", "-scale", "-1"}, "core: scale -1 is negative"},
		{[]string{"-id", "abl-indexing", "-quick", "-parallel", "-3"}, "core: parallelism -3 is negative"},
	} {
		if err := cmdExp(tc.args); err == nil || err.Error() != tc.want {
			t.Errorf("exp %v: error %v, want %q", tc.args, err, tc.want)
		}
	}
}

func TestCmdListRuns(t *testing.T) {
	if err := cmdList(); err != nil {
		t.Fatal(err)
	}
}

func TestCmdRunValidation(t *testing.T) {
	if err := cmdRun([]string{}); err == nil {
		t.Fatal("missing -app accepted")
	}
	if err := cmdRun([]string{"-app", "nope"}); err == nil {
		t.Fatal("unknown app accepted")
	}
	if err := cmdRun([]string{"-app", "swaptions", "-ways", "13", "-scale", "0.0002"}); err == nil {
		t.Fatal("13 ways accepted on a 12-way LLC")
	}
	if err := cmdRun([]string{"-app", "swaptions", "-scale", "0.0002"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdPairValidation(t *testing.T) {
	if err := cmdPair([]string{"-fg", "fop"}); err == nil {
		t.Fatal("missing -bg accepted")
	}
	if err := cmdPair([]string{"-fg", "fop", "-bg", "dedup", "-policy", "warp"}); err == nil {
		t.Fatal("unknown policy accepted")
	}
	if err := cmdPair([]string{"-fg", "nope", "-bg", "dedup", "-policy", "shared"}); err == nil {
		t.Fatal("unknown fg accepted")
	}
	if err := cmdPair([]string{"-fg", "fop", "-bg", "nope", "-policy", "shared"}); err == nil {
		t.Fatal("unknown bg accepted")
	}
	if err := cmdPair([]string{"-fg", "fop", "-bg", "dedup", "-policy", "fair", "-scale", "0.0002"}); err != nil {
		t.Fatal(err)
	}
}
