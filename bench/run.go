package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/obs"
)

// workloadResult is one workload's outcome in results.json.
type workloadResult struct {
	Name      string  `json:"name"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	FailFrac  float64 `json:"fail_frac"`
	// Digest fingerprints the reports the workload's set-up produced;
	// it depends on the seed and the program only, never on timing.
	Digest string `json:"digest"`
	// Counts are the engine's per-operation counts; deterministic for
	// the in-process workloads.
	Counts  map[string]float64      `json:"counts,omitempty"`
	Metrics map[string]metricRecord `json:"metrics"`
	// Extra holds diagnostics that are recorded but not judged.
	Extra  map[string]float64 `json:"extra,omitempty"`
	SelfMS map[string]float64 `json:"self_ms_per_op,omitempty"`
	// RatesRPS are a serving workload's step rates, requests per second.
	RatesRPS  map[string]float64 `json:"rates_rps,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
	Errors    []string           `json:"errors,omitempty"`

	measured   map[string]metricRecord
	childTrace string // the workload child's Chrome trace, traced pass only
}

func (wr *workloadResult) set(name string, value float64, samples []float64) {
	s := summarize(samples)
	if len(samples) == 0 {
		s = summary{N: 1, Median: value, Q1: value, Q3: value}
	}
	wr.measured[name] = metricRecord{metricValue: metricValue{Value: value}, summary: s}
}

func (wr *workloadResult) fail(errs ...string) {
	for _, e := range errs {
		if len(wr.Errors) < 8 {
			wr.Errors = append(wr.Errors, e)
		}
	}
}

// runWorkload runs one workload and records what it measured.
func runWorkload(rc runCtx, w workloadDef) *workloadResult {
	wr := &workloadResult{Name: w.name, measured: map[string]metricRecord{}, Extra: map[string]float64{}}
	rc.tmp = filepath.Join(rc.tmp, w.name)
	ctx, cancel := newContext(rc)
	defer cancel()
	err := os.MkdirAll(rc.tmp, 0o755)
	if err == nil && isServe(w.name) {
		err = runServe(ctx, rc, wr, w.steps)
	} else if err == nil {
		err = runInproc(ctx, rc, wr)
	}
	if err != nil {
		wr.abort(err)
	}
	return wr
}

// abort records an error that ended the workload early.
func (wr *workloadResult) abort(err error) {
	wr.fail(err.Error())
	wr.Attempted = max(wr.Attempted, 1)
	wr.Failed = max(wr.Failed, 1)
}

// finalize picks the metrics the output carries — defs, each with its
// unit — and decides whether the workload ran correctly.
func (wr *workloadResult) finalize(defs []metricDef) {
	wr.Metrics = map[string]metricRecord{}
	for _, d := range defs {
		m, ok := wr.measured[d.Name]
		if !ok || !finite(m.Value) {
			if len(wr.Errors) == 0 {
				wr.fail(fmt.Sprintf("metric %s was not measured", d.Name))
				wr.Failed++
			}
			continue
		}
		m.Unit = d.Unit
		wr.Metrics[d.Name] = m
	}
	for k, v := range wr.Extra {
		if !finite(v) {
			delete(wr.Extra, k) // nothing to measure, e.g. no fresh request in a tiny run
		}
	}
	wr.FailFrac = float64(wr.Failed) / float64(max(wr.Attempted, 1))
	wr.Extra["fail_frac"] = wr.FailFrac
	wr.Correct = wr.Failed == 0 && len(wr.Errors) == 0
}

// setupLoop starts the workload's child rc.setups times, timing each
// from process start until start reports ready, and keeps the last one
// running. Every set-up must produce the same digest.
func setupLoop(rc runCtx, wr *workloadResult, start func() (*child, string, error)) (*child, error) {
	var setups []float64
	var last *child
	for k := 0; k < rc.setups; k++ {
		t0 := time.Now()
		c, d, err := start()
		if err != nil {
			if c != nil {
				c.kill()
			}
			return nil, fmt.Errorf("set-up %d: %w", k+1, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if wr.Digest != "" && d != wr.Digest {
			c.kill()
			return nil, fmt.Errorf("set-up %d produced digest %s, set-up 1 %s", k+1, d, wr.Digest)
		}
		wr.Digest = d
		if k < rc.setups-1 {
			if _, err := c.finish(); err != nil {
				return nil, err
			}
			continue
		}
		last = c
	}
	wr.set("setup_s", quantile(setups, 0.5), setups)
	return last, nil
}

// runInproc runs an in-process workload: set-ups, then the untraced
// (and, with --trace 1, traced) operations in the last child.
func runInproc(ctx context.Context, rc runCtx, wr *workloadResult) error {
	c, err := setupLoop(rc, wr, func() (*child, string, error) {
		c, err := startChild(ctx, rc.childArgs(wr.Name)...)
		if err != nil {
			return nil, "", err
		}
		m, err := c.expect("ready")
		return c, m.Digest, err
	})
	if err != nil {
		return err
	}
	defer c.kill()
	untraced, traced, _ := rc.split()
	cmd := childCmd{Seconds: untraced, TracedSeconds: traced}
	if rc.traced {
		cmd.TraceFile = filepath.Join(rc.tmp, "child.trace.json")
	}
	if err := c.send(cmd); err != nil {
		return err
	}
	m, err := c.expect("done")
	if err != nil {
		return err
	}
	rss, err := c.finish()
	if err != nil {
		return err
	}
	wr.childTrace = cmd.TraceFile
	d := m.Done
	wr.Attempted = len(d.Ops) + len(d.TracedOps)
	wr.Failed = len(d.Errors)
	wr.fail(d.Errors...)

	lat := opMS(d.Ops)
	wr.set("op_ms_p50", quantile(lat, 0.5), lat)
	wr.Extra["op_ms_p90"] = quantile(lat, 0.9)
	wr.set("peak_rss_mb", rss, nil)
	wr.setCounts(d.Ops)
	if rc.traced {
		tlat := opMS(d.TracedOps)
		wr.set("trace_overhead_frac", quantile(tlat, 0.5)/quantile(lat, 0.5)-1, nil)
		wr.set("core.dark_frac", d.DarkFrac, nil)
		wr.SelfMS = d.SelfMS
	}
	return nil
}

func opMS(ops []opResult) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.Seconds * 1e3
	}
	return out
}

// setCounts records the engine's per-operation counts, as results.json
// counts and as the sched.* per-layer metrics.
func (wr *workloadResult) setCounts(ops []opResult) {
	if len(ops) == 0 {
		return
	}
	var sims, memo, disk, qw, mw []float64
	for _, o := range ops {
		sims = append(sims, float64(o.Sims))
		memo = append(memo, float64(o.MemoHits))
		disk = append(disk, float64(o.DiskHits))
		qw = append(qw, o.QueueWaitS*1e3)
		mw = append(mw, o.MemoWaitS*1e3)
	}
	wr.Counts = map[string]float64{
		"sims_per_op": mean(sims), "memo_hits_per_op": mean(memo), "disk_hits_per_op": mean(disk),
	}
	wr.set("sched.sims", mean(sims), sims)
	wr.set("sched.memo_hits", mean(memo), memo)
	wr.set("sched.disk_hits", mean(disk), disk)
	wr.set("sched.queue_wait_ms", quantile(qw, 0.5), qw)
	wr.set("sched.memo_wait_ms", quantile(mw, 0.5), mw)
}

// ladderAndTrace runs the ladder once for the invocation — its numbers
// do not depend on the workload — gives its metrics to every workload,
// and writes the invocation's one Chrome trace: this process's spans
// (the ladder's and the serving clients') and each workload child's.
func ladderAndTrace(rc runCtx, wrs []*workloadResult, path string) error {
	_, _, budget := rc.split()
	vals, err := runLadder(rc.childOpts, time.Duration(budget*float64(time.Second)), rc.tracer)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	names := []string{"bench"}
	docs := [][]byte{rc.tracer.ChromeTrace()}
	for _, wr := range wrs {
		for k, v := range vals {
			wr.set(k, v, nil)
		}
		wr.TraceFile = path
		if wr.childTrace == "" {
			continue
		}
		b, err := os.ReadFile(wr.childTrace)
		if err != nil {
			return err
		}
		names = append(names, "workload "+wr.Name)
		docs = append(docs, b)
	}
	merged, err := mergeTraces(names, docs)
	if err != nil {
		return err
	}
	return writeFile(path, merged)
}

// runServe runs a serving workload: an in-process session pre-fills a
// result store (its example reports are the reference), then set-ups
// each start a server child over a copy of that store and push the
// warm pool through it, then this process plays the open-loop load.
func runServe(ctx context.Context, rc runCtx, wr *workloadResult, steps []step) error {
	examples, err := loadRequests(rc.root, rc.seed, append(append([]string{}, mixExamples...), fleetExamples...)...)
	if err != nil {
		return err
	}
	nWarm := storeWarmers
	if rc.smoke {
		nWarm = storeWarmers / 40
	}
	warmers, err := warmerSpecs(nWarm)
	if err != nil {
		return err
	}
	store := filepath.Join(rc.tmp, "store")
	ref, err := prefillStore(store, examples, warmers, rc.scale())
	if err != nil {
		return fmt.Errorf("pre-filling the store: %w", err)
	}
	runtime.GC() // collect the pre-fill session before any set-up is timed
	steps = append([]step(nil), steps...)
	wr.RatesRPS = map[string]float64{}
	for i := range steps {
		if rc.smoke {
			steps[i].rate /= 4
		}
		wr.RatesRPS[steps[i].name] = steps[i].rate
	}
	untraced, traced, _ := rc.split()
	plan, err := newLoadPlan(rc.seed, steps, untraced, examples)
	if err != nil {
		return err
	}
	if len(plan.at) == 0 {
		return fmt.Errorf("empty load schedule")
	}
	servers := 0
	startServer := func() (*child, *client, string, error) {
		servers++
		dir := filepath.Join(rc.tmp, fmt.Sprintf("serve-%d", servers))
		if err := linkStore(store, dir); err != nil {
			return nil, nil, "", err
		}
		c, err := startChild(ctx, append(rc.childArgs(wr.Name), "-store", dir)...)
		if err != nil {
			return nil, nil, "", err
		}
		m, err := c.expect("listening")
		if err != nil {
			return c, nil, "", err
		}
		cl := newClient(m.Addr)
		if err := cl.waitHealthy(ctx); err != nil {
			return c, cl, "", err
		}
		d, err := warmPool(ctx, cl, examples, warmers, ref)
		return c, cl, d, err
	}
	var cl *client
	c, err := setupLoop(rc, wr, func() (*child, string, error) {
		c, k, d, err := startServer()
		if k != nil {
			if cl != nil {
				cl.close()
			}
			cl = k
		}
		return c, d, err
	})
	if err != nil {
		return err
	}
	defer c.kill()

	lr, srv, rss, err := serveLoad(ctx, c, cl, plan, ref, nil)
	if err != nil {
		return err
	}
	wr.Attempted, wr.Failed = lr.attempted, lr.failed
	wr.fail(lr.errors...)
	wr.set("op_ms_p50", quantile(lr.lat, 0.5), lr.lat)
	wr.Extra["op_ms_p90"] = quantile(lr.lat, 0.9)
	wr.set("peak_rss_mb", rss, nil)
	wr.Extra["op_ms_p99"] = quantile(lr.lat, 0.99)
	wr.Extra["bench.late_ms_p90"] = quantile(lr.late, 0.9)
	wr.Extra["server.submit_ms_p50"] = quantile(lr.submit, 0.5)
	wr.Extra["server.warm_lat_ms_p50"] = quantile(lr.warmLat, 0.5)
	wr.Extra["server.fresh_lat_ms_p50"] = quantile(lr.freshLat, 0.5)
	wr.Extra["server.polls_per_req"] = float64(lr.polls) / float64(max(len(lr.lat), 1))
	wr.Extra["server.queue_wait_ms_p90"] = srv.queueWaitP90
	wr.Extra["server.rejected"] = srv.rejected
	for k, st := range lr.steps {
		name := steps[k].name
		wr.Extra["lat_p50_ms."+name] = quantile(st.lat, 0.5)
		wr.Extra["lat_p90_ms."+name] = quantile(st.lat, 0.9)
		wr.Extra["lat_p99_ms."+name] = quantile(st.lat, 0.99)
		wr.Extra["inflight_first_quarter."+name] = st.inflightFirst
		wr.Extra["inflight_last_quarter."+name] = st.inflightLast
		wr.Extra["slo_met."+name] = 0
		if st.sloMet() && lr.failed == 0 {
			wr.Extra["slo_met."+name] = 1
		}
	}
	n := float64(lr.attempted)
	wr.Counts = map[string]float64{
		"sims_per_op": float64(srv.counts.Sims) / n, "memo_hits_per_op": float64(srv.counts.MemoHits) / n,
		"disk_hits_per_op": float64(srv.counts.DiskHits) / n,
	}
	if !rc.traced {
		return nil
	}
	wr.set("sched.sims", float64(srv.counts.Sims)/n, nil)
	wr.set("sched.memo_hits", float64(srv.counts.MemoHits)/n, nil)
	wr.set("sched.disk_hits", float64(srv.counts.DiskHits)/n, nil)
	wr.set("sched.queue_wait_ms", srv.counts.QueueWaitS*1e3/n, nil)
	wr.set("sched.memo_wait_ms", srv.counts.MemoWaitS*1e3/n, nil)
	wr.set("core.dark_frac", srv.darkFrac, nil)

	// The traced pass replays the identical schedule against a second
	// server set up the same way, so its reports must match the
	// untraced pass's exactly and its latency differs only by tracing.
	tplan, err := newLoadPlan(rc.seed, steps, traced, examples)
	if err != nil {
		return err
	}
	c2, cl2, d2, err := startServer()
	if c2 != nil {
		defer c2.kill()
	}
	if err != nil {
		return fmt.Errorf("traced server: %w", err)
	}
	if d2 != wr.Digest {
		return fmt.Errorf("traced server's warm pool digest %s differs from %s", d2, wr.Digest)
	}
	tlr, _, _, err := serveLoad(ctx, c2, cl2, tplan, ref, rc.tracer)
	if err != nil {
		return err
	}
	wr.Attempted += tlr.attempted
	wr.Failed += tlr.failed
	wr.fail(tlr.errors...)
	if traced == untraced && tlr.freshDigest != lr.freshDigest {
		wr.Failed++
		wr.fail(fmt.Sprintf("traced pass served fresh reports %s, untraced %s", tlr.freshDigest, lr.freshDigest))
	}
	wr.set("trace_overhead_frac", quantile(tlr.lat, 0.5)/quantile(lr.lat, 0.5)-1, nil)
	return nil
}

// serverSide is what the server reports about one load pass.
type serverSide struct {
	counts       opResult
	darkFrac     float64
	queueWaitP90 float64
	rejected     float64
}

// serveLoad marks the server's counters, plays the plan, scrapes
// /metrics around it, then drains and stops the server.
func serveLoad(ctx context.Context, c *child, cl *client, p loadPlan, ref map[string]string, tr *obs.Tracer) (loadResult, serverSide, float64, error) {
	var srv serverSide
	before, err := cl.metrics(ctx)
	if err != nil {
		return loadResult{}, srv, 0, err
	}
	if err := c.send(childCmd{Mark: true}); err != nil {
		return loadResult{}, srv, 0, err
	}
	if _, err := c.expect("marked"); err != nil {
		return loadResult{}, srv, 0, err
	}
	lr := runLoad(ctx, cl, p, ref, tr)
	after, err := cl.metrics(ctx)
	cl.close()
	if err != nil {
		return lr, srv, 0, err
	}
	srv.queueWaitP90 = queueWaitP90(before, after)
	for _, reason := range []string{"rate_limit", "queue_full"} {
		k := `cachepart_runs_rejected_total{reason="` + reason + `"}`
		srv.rejected += after[k] - before[k]
	}
	c.stdin.Close()
	m, err := c.expect("done")
	if err != nil {
		return lr, srv, 0, err
	}
	rss, err := c.finish()
	if err != nil {
		return lr, srv, 0, err
	}
	srv.counts = *m.Done.Server
	srv.darkFrac = m.Done.DarkFrac
	return lr, srv, rss, nil
}
