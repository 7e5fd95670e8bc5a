package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/scenario/fuzz"
	"repro/internal/server"
)

// Serving load shape. Three in four requests resubmit a shipped
// example (a memo hit after the warm pool); one in four is a fresh
// fleet spec from fuzz.Generate that the server has never seen: new
// parse, compile, oracle, episodes and report, over simulations the
// pre-filled store mostly holds. Fresh single-machine fuzz mixes are
// left out on purpose: their simulation space is too large to pre-fill,
// so a handful of second-long simulations per run would decide the
// tail latency and make it a draw of the seed. The simulator's cost is
// what mix-cold and fleet-cold measure.
const (
	freshFrac = 0.25
	// pollEvery is the client's report polling period.
	pollEvery = 2 * time.Millisecond
	// maxConns caps the client's connections at the host's core count
	// this benchmark is sized for.
	maxConns = 2
	// drainGrace bounds how long requests still in flight after the
	// schedule ends may take before they count as failed.
	drainGrace = 20 * time.Second
	// latencyLimit is the serving objective each step should meet at
	// p90, with no backlog growth.
	latencyLimit = 100 * time.Millisecond
)

// serveChild runs the service as `cachepart serve -quick -cache-dir D`
// builds it — one traced session over a result store, behind
// internal/server — with the per-client rate limit and the run queue
// raised so the open loop is never refused: overload shows as latency.
// It serves on a loopback port until its input closes, then drains and
// reports the engine activity since the parent's mark.
func serveChild(o childOpts, in *json.Decoder, out *json.Encoder) error {
	sess, err := core.NewSessionWith(core.RunConfig{Scale: o.scale(), CacheDir: o.store}, obs.New(0))
	if err != nil {
		return err
	}
	srv := server.New(sess, serverOptions())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	out.Encode(childMsg{Event: "listening", Addr: ln.Addr().String()})

	mark := sess.Stats()
	for {
		var cmd childCmd
		if in.Decode(&cmd) != nil {
			break
		}
		if cmd.Mark {
			mark = sess.Stats()
			out.Encode(childMsg{Event: "marked"})
		}
	}
	srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-errc; err != http.ErrServerClosed {
		return err
	}
	r := countsOf("", sess.Stats().Delta(mark))
	_, dark := selfTimes(sess.Tracer().Snapshot())
	out.Encode(childMsg{Event: "done", Done: &childDone{Server: &r, DarkFrac: dark}})
	return nil
}

func serverOptions() server.Options {
	return server.Options{RatePerSec: 1e9, Burst: 1 << 30, Queue: 1 << 12, AccessLog: io.Discard}
}

// client submits specs over HTTP through at most maxConns connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string) *client {
	t := &http.Transport{MaxConnsPerHost: maxConns, MaxIdleConnsPerHost: maxConns, DisableCompression: true}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: t}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call is one finished submission.
type call struct {
	report string
	polls  int
	submit time.Duration // POST round trip
}

// run POSTs a spec and polls its report every pollEvery, the first poll
// phase after the POST returns, until the run is done.
//
// The load draws each request's phase uniformly over one poll period.
// With every client polling in step right after its POST, the latency
// it sees is quantized to whole poll periods, and a percentile sits in
// one poll-count mode or jumps to the next; a random phase smooths the
// measured latency into the true completion time plus on average half a
// period.
func (c *client) run(ctx context.Context, body []byte, phase time.Duration, tr *obs.Tracer, parent obs.SpanID) (call, error) {
	var out call
	sp := tr.Start("http.submit", parent)
	t0 := time.Now()
	status, resp, err := c.do(ctx, http.MethodPost, "/v1/runs", body)
	out.submit = time.Since(t0)
	sp.End()
	if err != nil {
		return out, err
	}
	if status != http.StatusAccepted {
		return out, fmt.Errorf("submit: HTTP %d: %s", status, strings.TrimSpace(string(resp)))
	}
	var sub struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(resp, &sub); err != nil {
		return out, fmt.Errorf("submit: %w", err)
	}
	for wait := phase; ; wait = pollEvery {
		if wait > 0 {
			select {
			case <-ctx.Done():
				return out, ctx.Err()
			case <-time.After(wait):
			}
		}
		sp := tr.Start("http.report", parent)
		status, resp, err := c.do(ctx, http.MethodGet, "/v1/runs/"+sub.ID+"/report", nil)
		sp.End()
		out.polls++
		if err != nil {
			return out, err
		}
		switch status {
		case http.StatusOK:
			var env core.Envelope
			if err := json.Unmarshal(resp, &env); err != nil {
				return out, fmt.Errorf("report: %w", err)
			}
			out.report = env.Report
			return out, nil
		case http.StatusAccepted:
		default:
			return out, fmt.Errorf("report: HTTP %d: %s", status, strings.TrimSpace(string(resp)))
		}
	}
}

func (c *client) do(ctx context.Context, method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// waitHealthy polls /healthz until the server answers 200.
func (c *client) waitHealthy(ctx context.Context) error {
	for {
		status, _, err := c.do(ctx, http.MethodGet, "/healthz", nil)
		if err == nil && status == http.StatusOK {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server never became healthy: %w", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// metrics scrapes /metrics into a map from series (name plus labels)
// to value.
func (c *client) metrics(ctx context.Context) (map[string]float64, error) {
	status, body, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("metrics: HTTP %d", status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, nil
}

// queueWaitP90 estimates the 90th percentile of the service queue wait
// between two /metrics scrapes from the histogram's cumulative buckets
// (the upper bound of the bucket holding it), in milliseconds.
func queueWaitP90(before, after map[string]float64) float64 {
	const prefix = `cachepart_run_queue_wait_seconds_bucket{le="`
	type bucket struct{ le, n float64 }
	var bs []bucket
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			continue // +Inf
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	total := after["cachepart_run_queue_wait_seconds_count"] - before["cachepart_run_queue_wait_seconds_count"]
	if total == 0 {
		return 0
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	for _, b := range bs {
		if b.n >= 0.9*total {
			return b.le * 1e3
		}
	}
	return math.Inf(1)
}

// loadPlan is one open-loop schedule: Poisson arrivals in constant-rate
// steps, each a resubmitted example or a fresh fuzz spec, all derived
// from the seed before the load starts.
type loadPlan struct {
	at      []time.Duration
	step    []int           // which step each request belongs to
	phase   []time.Duration // first poll after the POST returns
	name    []string
	body    [][]byte
	fresh   []bool
	stepEnd []time.Duration
}

// step is one constant-rate stretch of a serving schedule.
type step struct {
	name string
	rate float64 // requests per second
}

// newLoadPlan lays the steps end to end, each an equal share of
// seconds at its own Poisson rate.
func newLoadPlan(seed uint64, steps []step, seconds float64, examples []request) (loadPlan, error) {
	var p loadPlan
	r := rng.NewNamed(fmt.Sprintf("bench.serve.%d", seed))
	share := seconds / float64(len(steps))
	for k, st := range steps {
		t, end := float64(k)*share, float64(k+1)*share
		for {
			t += -math.Log(1-r.Float64()) / st.rate
			if t >= end {
				break
			}
			i := len(p.at)
			p.at = append(p.at, time.Duration(t*float64(time.Second)))
			p.step = append(p.step, k)
			p.phase = append(p.phase, time.Duration(r.Float64()*float64(pollEvery)))
			if r.Float64() < freshFrac {
				sc, fs := freshFleet(seed<<32 | uint64(i)<<4)
				body, err := json.Marshal(sc)
				if err != nil {
					return p, err
				}
				p.name = append(p.name, fmt.Sprintf("fuzz-%d", fs))
				p.body = append(p.body, body)
				p.fresh = append(p.fresh, true)
				continue
			}
			ex := examples[r.Intn(len(examples))]
			p.name = append(p.name, ex.name)
			p.body = append(p.body, ex.body)
			p.fresh = append(p.fresh, false)
		}
		p.stepEnd = append(p.stepEnd, time.Duration(end*float64(time.Second)))
	}
	return p, nil
}

// loadResult is what one open-loop pass measured.
type loadResult struct {
	lat, warmLat, freshLat []float64 // milliseconds, successful requests
	late                   []float64 // generator lateness, milliseconds
	submit                 []float64 // POST round trips, milliseconds
	polls                  int
	attempted, failed      int
	errors                 []string
	freshDigest            string
	steps                  []stepResult
}

// stepResult is one step of the schedule.
type stepResult struct {
	lat []float64 // milliseconds, successful requests
	// inflightFirst/Last are the mean requests in flight over the first
	// and last quarter of the step: a growing backlog shows as the second
	// well above the first.
	inflightFirst, inflightLast float64
}

// backlogGrew reports whether requests piled up over the step.
func (s stepResult) backlogGrew() bool {
	return s.inflightLast > 2*s.inflightFirst+2
}

// sloMet reports whether the step kept p90 within the latency limit
// with no backlog growth.
func (s stepResult) sloMet() bool {
	return quantile(s.lat, 0.9) <= float64(latencyLimit.Milliseconds()) && !s.backlogGrew()
}

// runLoad plays the plan against the server open loop: each request is
// sent at its scheduled time whether or not earlier ones finished, and
// timed from that scheduled time, so a stall is charged to every
// request it delays. Example reports must match ref byte for byte.
func runLoad(ctx context.Context, c *client, p loadPlan, ref map[string]string, tr *obs.Tracer) loadResult {
	n := len(p.at)
	type outcome struct {
		lat, late time.Duration
		call      call
		err       error
	}
	res := make([]outcome, n)
	var wg sync.WaitGroup
	var inflight atomic.Int64
	end := p.stepEnd[len(p.stepEnd)-1]
	ctx, cancel := context.WithTimeout(ctx, end+drainGrace)
	defer cancel()

	// Sample the in-flight count every 10 ms of the schedule.
	type sample struct {
		at time.Duration
		n  int64
	}
	var samples []sample
	stop := make(chan struct{})
	sampled := make(chan struct{})
	start := time.Now().Add(10 * time.Millisecond)
	go func() {
		defer close(sampled)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if at := time.Since(start); at >= 0 && at < end {
					samples = append(samples, sample{at, inflight.Load()})
				}
			}
		}
	}()

	for i := 0; i < n; i++ {
		due := start.Add(p.at[i])
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(due)
		inflight.Add(1)
		wg.Add(1)
		go func(i int, due time.Time, late time.Duration) {
			defer wg.Done()
			defer inflight.Add(-1)
			sp := tr.Start("bench.request", 0, obs.String("spec", p.name[i]))
			cl, err := c.run(ctx, p.body[i], p.phase[i], tr, sp.ID())
			sp.End()
			res[i] = outcome{lat: time.Since(due), late: late, call: cl, err: err}
		}(i, due, late)
	}
	wg.Wait()
	close(stop)
	<-sampled

	lr := loadResult{steps: make([]stepResult, len(p.stepEnd))}
	var fresh digest
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 }
	for i, o := range res {
		lr.attempted++
		err := o.err
		if err == nil && !p.fresh[i] && reportDigest(o.call.report) != ref[p.name[i]] {
			err = fmt.Errorf("report differs from the in-process session's")
		}
		lr.late = append(lr.late, ms(o.late))
		if err != nil {
			lr.failed++
			if len(lr.errors) < 5 {
				lr.errors = append(lr.errors, fmt.Sprintf("request %d (%s): %v", i, p.name[i], err))
			}
			continue
		}
		lr.polls += o.call.polls
		lr.submit = append(lr.submit, ms(o.call.submit))
		lr.lat = append(lr.lat, ms(o.lat))
		st := &lr.steps[p.step[i]]
		st.lat = append(st.lat, ms(o.lat))
		if p.fresh[i] {
			lr.freshLat = append(lr.freshLat, ms(o.lat))
			fresh.add(o.call.report)
		} else {
			lr.warmLat = append(lr.warmLat, ms(o.lat))
		}
	}
	lr.freshDigest = fresh.String()
	var from time.Duration
	for k, to := range p.stepEnd {
		var in []float64
		for _, s := range samples {
			if s.at >= from && s.at < to {
				in = append(in, float64(s.n))
			}
		}
		if q := len(in) / 4; q > 0 {
			lr.steps[k].inflightFirst = mean(in[:q])
			lr.steps[k].inflightLast = mean(in[len(in)-q:])
		}
		from = to
	}
	return lr
}

// freshFleet returns the first fleet fuzz.Generate yields at or after
// seed (two in three of its specs are fleets), and that seed.
func freshFleet(seed uint64) (*scenario.Scenario, uint64) {
	for {
		if sc := fuzz.Generate(seed); sc.IsFleet() {
			return sc, seed
		}
		seed++
	}
}

// storeWarmers is how many fuzz fleets, from a fixed seed range the
// load never draws, pre-fill the service's result store and pass
// through each server's warm pool. A long-lived service has seen many
// specs; about 330 cover every simulation a fuzz fleet can need, so the
// load measures the steady state rather than the transient of a cold
// process.
const storeWarmers = 400

func warmerSpecs(n int) ([]request, error) {
	var out []request
	for k := 0; k < n; k++ {
		sc, fs := freshFleet(1<<63 | uint64(k)<<4)
		body, err := json.Marshal(sc)
		if err != nil {
			return nil, err
		}
		out = append(out, request{name: fmt.Sprintf("fuzz-%d", fs), body: body})
	}
	return out, nil
}

// prefillStore runs every example, then the warmers, on a fresh
// in-process session writing to an empty store at dir. It returns each
// example report's digest: computed from scratch, it is the reference
// the server must serve byte for byte.
func prefillStore(dir string, examples, warmers []request, scale float64) (map[string]string, error) {
	sess, err := core.NewSession(core.RunConfig{Scale: scale, CacheDir: dir})
	if err != nil {
		return nil, err
	}
	ref := map[string]string{}
	for _, ex := range examples {
		sc, err := scenario.Parse(ex.body)
		if err != nil {
			return nil, err
		}
		res, err := sess.RunScenario(sc, core.RunConfig{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", ex.name, err)
		}
		ref[ex.name] = reportDigest(res.Envelope.Report)
	}
	for _, w := range warmers {
		sc, err := scenario.Parse(w.body)
		if err != nil {
			return nil, err
		}
		if _, err := sess.RunScenario(sc, core.RunConfig{}); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return ref, nil
}

// linkStore gives a server child its own copy of the pre-filled store.
// Records are immutable once written (saves go through a temporary
// file and a rename), so hard links are a safe copy.
func linkStore(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := os.Link(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

// warmPool submits every example once, in order, checking each report
// against the in-process reference, then every warmer. It returns the
// digest of the examples' reports.
func warmPool(ctx context.Context, c *client, examples, warmers []request, ref map[string]string) (string, error) {
	var d digest
	for _, ex := range examples {
		cl, err := c.run(ctx, ex.body, 0, nil, 0)
		if err != nil {
			return "", fmt.Errorf("warm pool %s: %w", ex.name, err)
		}
		if got := reportDigest(cl.report); got != ref[ex.name] {
			return "", fmt.Errorf("warm pool %s: served report %s differs from the in-process session's %s",
				ex.name, got, ref[ex.name])
		}
		d.add(cl.report)
	}
	for _, w := range warmers {
		if _, err := c.run(ctx, w.body, 0, nil, 0); err != nil {
			return "", fmt.Errorf("warm pool %s: %w", w.name, err)
		}
	}
	return d.String(), nil
}
