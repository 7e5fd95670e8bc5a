package core

import (
	"strings"
	"testing"
)

func TestWorkloadsListed(t *testing.T) {
	if len(Workloads()) != 45 {
		t.Fatalf("%d workloads", len(Workloads()))
	}
	if len(Representatives()) != 6 {
		t.Fatalf("%d representatives", len(Representatives()))
	}
}

// rejects runs spec under cfg and fails unless it errors with a
// message containing want.
func rejects(t *testing.T, sess *Session, spec string, cfg RunConfig, want string) {
	t.Helper()
	_, err := sess.RunSpec([]byte(spec), cfg)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("spec %s: err %v, want %q", spec, err, want)
	}
}

// TestRunAloneErrors checks that a standalone run of an unknown app, or
// one confined to more ways than the 12-way LLC has, is rejected.
func TestRunAloneErrors(t *testing.T) {
	sess := quickSession(t)
	rejects(t, sess, `{"name": "alone",
		"jobs": [{"app": "nope", "role": "latency", "threads": 4}]}`,
		RunConfig{}, `unknown application "nope"`)
	rejects(t, sess, `{"name": "alone", "partition": {"policy": "explicit"},
		"jobs": [{"app": "ferret", "role": "latency", "threads": 4, "ways": [0, 13]}]}`,
		RunConfig{}, "[0,13) invalid for a 12-way LLC")
}

// TestConsolidateUnknownPolicy checks that a foreground/background pair
// under an unregistered policy, or naming an unknown app on either
// side, is rejected.
func TestConsolidateUnknownPolicy(t *testing.T) {
	sess := quickSession(t)
	pair := func(fg, bg, policy string) string {
		return `{"name": "pair", "partition": {"policy": "` + policy + `"},
			"jobs": [
				{"app": "` + fg + `", "role": "latency", "threads": 4},
				{"app": "` + bg + `", "role": "batch", "loop": true, "threads": 4}
			]}`
	}
	rejects(t, sess, pair("fop", "dedup", "magic"), RunConfig{},
		`unknown partition policy "magic"`)
	rejects(t, sess, pair("fop", "dedup", "shared"), RunConfig{Policy: "magic"},
		`unknown partition policy "magic"`)
	rejects(t, sess, pair("nope", "dedup", "shared"), RunConfig{},
		`job 0: workload: unknown application "nope"`)
	rejects(t, sess, pair("fop", "nope", "shared"), RunConfig{},
		`job 1: workload: unknown application "nope"`)
}
