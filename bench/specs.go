package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// The shipped examples the workloads draw from (examples/scenarios).
var (
	mixExamples = []string{
		"latency-3batch", "consolidation-4app", "stream-pileon", "oversubscribed-10job",
	}
	fleetExamples = []string{
		"fleet-batch-drain", "fleet-churn-50", "fleet-consolidation-50",
		"fleet-diurnal", "fleet-dynamic-8", "fleet-utility-50",
	}
	megaExample = "fleet-mega-10k"
)

// request is one spec submission: the seeded JSON body plus the
// per-run overrides it is submitted with.
type request struct {
	name string
	body []byte
	cfg  core.RunConfig
}

// loadSeeded reads a shipped example and rewrites every rng stream name
// it declares — each job's seed of a single-machine mix, the trace seed
// of a fleet — to carry the benchmark seed, so one --seed value changes
// every input the program sees and the same value reproduces them.
func loadSeeded(root, name string, seed uint64) ([]byte, error) {
	return loadTagged(root, name, fmt.Sprintf("s%d", seed))
}

// loadTagged is loadSeeded with the suffix given.
func loadTagged(root, name, suffix string) ([]byte, error) {
	sc, err := scenario.ParseFile(filepath.Join(root, "examples", "scenarios", name+".json"))
	if err != nil {
		return nil, err
	}
	if sc.IsFleet() {
		sc.Fleet.Seed = joinSeed(sc.Fleet.Seed, suffix)
	} else {
		for i := range sc.Jobs {
			sc.Jobs[i].Seed = joinSeed(sc.Jobs[i].Seed, fmt.Sprintf("j%d-%s", i, suffix))
		}
	}
	body, err := json.Marshal(sc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return body, nil
}

func joinSeed(base, suffix string) string {
	if base == "" {
		return suffix
	}
	return base + "-" + suffix
}

// loadRequests seeds each named example.
func loadRequests(root string, seed uint64, names ...string) ([]request, error) {
	var out []request
	for _, n := range names {
		body, err := loadSeeded(root, n, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, request{name: n, body: body})
	}
	return out, nil
}

// mixRequests is mix-cold's iteration: the four shipped single-machine
// scenarios, then latency-3batch again under the two online policies.
func mixRequests(root string, seed uint64) ([]request, error) {
	reqs, err := loadRequests(root, seed, mixExamples...)
	if err != nil {
		return nil, err
	}
	for _, pol := range []string{scenario.PartitionDynamic, scenario.PartitionUtility} {
		r := reqs[0]
		r.cfg = core.RunConfig{Policy: pol}
		reqs = append(reqs, r)
	}
	return reqs, nil
}

// digest accumulates report bytes into one short hex fingerprint.
type digest struct{ h []byte }

func (d *digest) add(report string) {
	sum := sha256.New()
	sum.Write(d.h)
	sum.Write([]byte(report))
	d.h = sum.Sum(nil)
}

func (d *digest) String() string {
	if len(d.h) == 0 {
		return ""
	}
	return hex.EncodeToString(d.h[:8])
}

// reportDigest fingerprints one report on its own.
func reportDigest(report string) string {
	var d digest
	d.add(report)
	return d.String()
}

// runRequests parses and runs each request on sess in order, recording
// one span per public call under parent, and returns the digest of the
// reports.
func runRequests(sess *core.Session, reqs []request, tr *obs.Tracer, parent obs.SpanID) (string, error) {
	var d digest
	for _, rq := range reqs {
		sp := tr.Start("scenario.Parse", parent, obs.String("spec", rq.name))
		sc, err := scenario.Parse(rq.body)
		sp.End()
		if err != nil {
			return "", err
		}
		sp = tr.Start("core.RunScenario", parent, obs.String("spec", rq.name))
		res, err := sess.RunScenario(sc, rq.cfg)
		sp.End()
		if err != nil {
			return "", fmt.Errorf("%s: %w", rq.name, err)
		}
		d.add(res.Envelope.Report)
	}
	return d.String(), nil
}

// writeFile writes data, creating parent directories.
func writeFile(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
