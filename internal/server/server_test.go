package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
)

const examplePath = "../../examples/scenarios/fleet-utility-50.json"

// newTestServer stands up a warm quick-scale session behind httptest.
// Every test gets its own session so cold-run expectations hold. The
// session carries a tracer, so every test here doubles as a check
// that tracing changes nothing about the service's behavior.
func newTestServer(t *testing.T, cfg core.RunConfig, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	cfg.Quick = true
	sess, err := core.NewSessionWith(cfg, obs.New(0))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sess, opt)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Drain()
		ts.Close()
	})
	return srv, ts
}

// zeroPhaseSeconds blanks the wall-clock phase durations — the only
// non-deterministic field an envelope carries — so envelopes from two
// runs of the same spec can be compared exactly.
func zeroPhaseSeconds(st *core.EngineStats) {
	for i := range st.Phases {
		st.Phases[i].Seconds = 0
	}
}

type submitResp struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	StatusURL string `json:"status_url"`
	ReportURL string `json:"report_url"`
}

func submit(t *testing.T, ts *httptest.Server, body []byte) submitResp {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, raw)
	}
	var sub submitResp
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatalf("submit response %s: %v", raw, err)
	}
	if sub.ID == "" || sub.State != "queued" ||
		sub.StatusURL != "/v1/runs/"+sub.ID || sub.ReportURL != "/v1/runs/"+sub.ID+"/report" {
		t.Fatalf("submit response shape: %+v", sub)
	}
	return sub
}

// pollReport polls the report endpoint until the run finishes and
// returns the envelope bytes verbatim.
func pollReport(t *testing.T, ts *httptest.Server, reportURL string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + reportURL)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			return raw
		case http.StatusAccepted: // still queued or running
			time.Sleep(10 * time.Millisecond)
		default:
			t.Fatalf("report: status %d, body %s", resp.StatusCode, raw)
		}
	}
	t.Fatal("run did not finish before the deadline")
	return nil
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestEndToEndFleetExample is the acceptance path: submit a shipped
// example over HTTP, poll to completion, and require the envelope —
// report bytes included — to match what the CLI's session produces for
// the same spec cold. Then resubmit warm and require zero simulations
// with the identical report.
func TestEndToEndFleetExample(t *testing.T) {
	spec, err := os.ReadFile(examplePath)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, core.RunConfig{}, Options{})

	sub := submit(t, ts, spec)
	got := pollReport(t, ts, sub.ReportURL)

	// Reference: a fresh cold session, as `cachepart scenario run -json`
	// builds. Engine determinism makes every field reproducible except
	// the wall-clock phase durations, so the envelopes must match
	// exactly once those are blanked.
	ref, err := core.NewSession(core.RunConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ref.RunSpec(spec, core.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var gotEnv core.Envelope
	if err := json.Unmarshal(got, &gotEnv); err != nil {
		t.Fatal(err)
	}
	wantEnv := *res.Envelope
	wantEnv.Stats.Phases = append([]core.PhaseStat(nil), wantEnv.Stats.Phases...)
	zeroPhaseSeconds(&gotEnv.Stats)
	zeroPhaseSeconds(&wantEnv.Stats)
	if !reflect.DeepEqual(gotEnv, wantEnv) {
		t.Errorf("server envelope diverges from CLI session\n--- server ---\n%+v\n--- cli ---\n%+v", gotEnv, wantEnv)
	}

	// Warm resubmission: same spec, same session — all memo hits.
	sub2 := submit(t, ts, spec)
	warmRaw := pollReport(t, ts, sub2.ReportURL)
	var cold, warm core.Envelope
	if err := json.Unmarshal(got, &cold); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(warmRaw, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Simulations != 0 || warm.Stats.MemoHits == 0 {
		t.Errorf("warm resubmission stats: %+v", warm.Stats)
	}
	if warm.Report != cold.Report {
		t.Error("warm report drifted from cold report")
	}

	// The status endpoint for a finished run reports done + final stats.
	var st struct {
		ID       string           `json:"id"`
		State    string           `json:"state"`
		Progress core.EngineStats `json:"progress"`
	}
	if code := getJSON(t, ts.URL+sub.StatusURL, &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	zeroPhaseSeconds(&st.Progress)
	zeroPhaseSeconds(&cold.Stats)
	if st.ID != sub.ID || st.State != "done" || !reflect.DeepEqual(st.Progress, cold.Stats) {
		t.Errorf("finished status: %+v (want stats %+v)", st, cold.Stats)
	}

	// Service metrics reflect the two completed runs.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range []string{
		"cachepart_runs_submitted_total 2",
		"cachepart_runs_completed_total 2",
		"cachepart_runs_failed_total 0",
		fmt.Sprintf("cachepart_engine_simulations_total %d", cold.Stats.Simulations),
		fmt.Sprintf("cachepart_engine_memo_hits_total %d", warm.Stats.MemoHits),
	} {
		if !strings.Contains(string(metrics), line+"\n") {
			t.Errorf("metrics missing %q:\n%s", line, metrics)
		}
	}
	// The observability families: per-phase engine accounting and the
	// run-duration / queue-wait histograms.
	for _, frag := range []string{
		`cachepart_engine_phase_runs_total{phase="oracle"} `,
		`cachepart_engine_phase_seconds_total{phase="oracle"} `,
		`cachepart_engine_phase_runs_total{phase="episode"} `,
		`cachepart_engine_phase_runs_total{phase="queue-wait"} `,
		`cachepart_run_duration_seconds_bucket{kind="fleet",fidelity="exact",le="+Inf"} 2`,
		`cachepart_run_duration_seconds_count{kind="fleet",fidelity="exact"} 2`,
		`cachepart_run_queue_wait_seconds_count 2`,
		`cachepart_rate_limit_wait_seconds_count 0`,
		"cachepart_engine_queue_depth 0",
		"cachepart_engine_active_workers 0",
	} {
		if !strings.Contains(string(metrics), frag) {
			t.Errorf("metrics missing %q:\n%s", frag, metrics)
		}
	}
}

// TestFidelityTiersSeparateKeys is the end-to-end aliasing check: an
// exact run followed by a fast run of the same fleet spec on one warm
// session with a persistent store. The fast tier's profiling runs carry
// their own memo/disk keys, so the second run must simulate (not memo-
// or disk-hit the exact run's records), echo its fidelity in the
// envelope, and report the analytic accounting line.
func TestFidelityTiersSeparateKeys(t *testing.T) {
	spec, err := os.ReadFile(examplePath)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, core.RunConfig{CacheDir: t.TempDir()}, Options{})

	sub := submit(t, ts, spec)
	var exact core.Envelope
	if err := json.Unmarshal(pollReport(t, ts, sub.ReportURL), &exact); err != nil {
		t.Fatal(err)
	}
	if exact.Fidelity != "exact" {
		t.Fatalf("plain fleet submission ran at fidelity %q, want exact", exact.Fidelity)
	}

	wrapped, err := json.Marshal(map[string]any{
		"spec":   json.RawMessage(spec),
		"config": map[string]any{"fidelity": "fast"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sub2 := submit(t, ts, wrapped)
	var fast core.Envelope
	if err := json.Unmarshal(pollReport(t, ts, sub2.ReportURL), &fast); err != nil {
		t.Fatal(err)
	}
	if fast.Fidelity != "fast" {
		t.Errorf("fast submission echoed fidelity %q", fast.Fidelity)
	}
	// The profiling runs are new keys: they must execute, not replay the
	// exact run's memo entries or disk records.
	if fast.Stats.Simulations == 0 {
		t.Errorf("fast run simulated nothing — profiling keys aliased the exact run: %+v", fast.Stats)
	}
	if fast.Stats.DiskHits != 0 {
		t.Errorf("fast run read %d disk records written by the exact run — key aliasing", fast.Stats.DiskHits)
	}
	if !strings.Contains(fast.Report, "fidelity: fast (model ") {
		t.Errorf("fast report carries no fidelity line:\n%s", fast.Report)
	}

	// Warm fast resubmission: now everything replays from this tier's
	// own keys.
	sub3 := submit(t, ts, wrapped)
	var warm core.Envelope
	if err := json.Unmarshal(pollReport(t, ts, sub3.ReportURL), &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Stats.Simulations != 0 || warm.Stats.MemoHits == 0 {
		t.Errorf("warm fast resubmission stats: %+v", warm.Stats)
	}
	if warm.Report != fast.Report {
		t.Error("warm fast report drifted from cold fast report")
	}
}

// TestMalformedSpec400 pins the error contract: a bad spec answers 400
// with exactly the one-line text the CLI prints for the same file.
func TestMalformedSpec400(t *testing.T) {
	_, ts := newTestServer(t, core.RunConfig{}, Options{})
	for _, bad := range []string{
		`{"name": `,
		`{"name": "x", "jobs": [{"app": "no-such-app", "role": "batch", "threads": 1}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad spec: status %d", resp.StatusCode)
		}
		_, want := scenario.Parse([]byte(bad))
		if want == nil {
			t.Fatal("fixture unexpectedly parses")
		}
		if body.Error != want.Error() {
			t.Errorf("server error %q diverges from CLI text %q", body.Error, want)
		}
		if strings.ContainsRune(body.Error, '\n') {
			t.Errorf("error is not one line: %q", body.Error)
		}
	}
}

// TestEngineFieldsRejected: the wrapped form may carry per-run
// overrides, but engine fields are fixed when the server starts.
func TestEngineFieldsRejected(t *testing.T) {
	_, ts := newTestServer(t, core.RunConfig{}, Options{})
	body := `{"spec": {"name": "x"}, "config": {"scale": 0.5}}`
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(raw, []byte("fixed when the session starts")) {
		t.Errorf("engine-field config: status %d, body %s", resp.StatusCode, raw)
	}
}

// TestOverrideApplies: a wrapped submission's per-run override changes
// the run (machines override on a fleet spec shows up in the report).
func TestOverrideApplies(t *testing.T) {
	_, ts := newTestServer(t, core.RunConfig{}, Options{})
	spec, err := os.ReadFile(examplePath)
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := json.Marshal(map[string]any{
		"spec":   json.RawMessage(spec),
		"config": map[string]any{"machines": 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	sub := submit(t, ts, wrapped)
	raw := pollReport(t, ts, sub.ReportURL)
	var env core.Envelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(env.Report, "(10 machines") {
		t.Errorf("machines override not reflected in report:\n%s", env.Report)
	}
}

// TestOversizedFleet400: a fleet past the size limits is refused at
// submission, whether the spec declares it or the per-run machines
// override asks for it, so no run ever sizes state from it.
func TestOversizedFleet400(t *testing.T) {
	_, ts := newTestServer(t, core.RunConfig{}, Options{})
	spec, err := os.ReadFile(examplePath)
	if err != nil {
		t.Fatal(err)
	}
	var inSpec map[string]any
	if err := json.Unmarshal(spec, &inSpec); err != nil {
		t.Fatal(err)
	}
	inSpec["fleet"].(map[string]any)["machines"] = 2_000_000_000
	bySpec, err := json.Marshal(inSpec)
	if err != nil {
		t.Fatal(err)
	}
	byConfig, err := json.Marshal(map[string]any{
		"spec":   json.RawMessage(spec),
		"config": map[string]any{"machines": 2_000_000_000},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"spec": bySpec, "config.machines": byConfig} {
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest ||
			!bytes.Contains(raw, []byte("2000000000 machines exceeds the limit of 100000")) {
			t.Errorf("%s: status %d, body %s", name, resp.StatusCode, raw)
		}
	}
}

// TestTinyBurstSeconds400 pins the bursty generator's bound at the
// service: a burst length that would have the generator step through
// billions of quiet and burst periods is a 400, not a worker held for
// hours.
func TestTinyBurstSeconds400(t *testing.T) {
	_, ts := newTestServer(t, core.RunConfig{}, Options{})
	spec, err := os.ReadFile(examplePath)
	if err != nil {
		t.Fatal(err)
	}
	var inSpec map[string]any
	if err := json.Unmarshal(spec, &inSpec); err != nil {
		t.Fatal(err)
	}
	inSpec["fleet"].(map[string]any)["arrivals"] = []any{map[string]any{
		"app": "429.mcf", "process": "bursty", "rate": 1200, "burst_seconds": 1e-12,
	}}
	body, err := json.Marshal(inSpec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(raw, []byte("expected bursts")) ||
		!bytes.Contains(raw, []byte("exceeds the limit of 1000000")) {
		t.Errorf("status %d, body %s", resp.StatusCode, raw)
	}
}

func TestRateLimit429(t *testing.T) {
	// Server workers read the injected clock (run timing) while the
	// test advances it, so it is an atomic Unix-nanosecond count.
	var clock atomic.Int64
	clock.Store(time.Unix(1000, 0).UnixNano())
	_, ts := newTestServer(t, core.RunConfig{}, Options{
		RatePerSec: 0.5, Burst: 1,
		Now: func() time.Time { return time.Unix(0, clock.Load()) },
	})
	spec, err := os.ReadFile(examplePath)
	if err != nil {
		t.Fatal(err)
	}
	submit(t, ts, spec) // spends the only token

	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submission: status %d, body %s", resp.StatusCode, raw)
	}
	if !bytes.Contains(raw, []byte("rate limit")) {
		t.Errorf("429 body: %s", raw)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 || secs > 2 {
		t.Errorf("Retry-After %q (want 1-2s at 0.5 tokens/s)", resp.Header.Get("Retry-After"))
	}

	// Advancing the injected clock past the refill admits the client again.
	clock.Add(int64(3 * time.Second))
	submit(t, ts, spec)
}

func TestQueueBackpressure503(t *testing.T) {
	_, ts := newTestServer(t, core.RunConfig{}, Options{Queue: 1, Concurrency: 1, Burst: 10})
	spec, err := os.ReadFile(examplePath)
	if err != nil {
		t.Fatal(err)
	}
	submit(t, ts, spec) // worker picks this up (cold run, runs a while)
	submit(t, ts, spec) // parks in the single queue slot
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(raw, []byte("queue full")) {
		t.Fatalf("third submission: status %d, body %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestReportBeforeDone: polling a queued run's report answers 202 with
// its status, not an empty or partial envelope.
func TestReportBeforeDone(t *testing.T) {
	_, ts := newTestServer(t, core.RunConfig{}, Options{Queue: 4, Concurrency: 1, Burst: 10})
	spec, err := os.ReadFile(examplePath)
	if err != nil {
		t.Fatal(err)
	}
	submit(t, ts, spec)           // occupies the single worker, cold
	queued := submit(t, ts, spec) // behind it in the queue
	resp, err := http.Get(ts.URL + queued.ReportURL)
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		State string `json:"state"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted || (st.State != "queued" && st.State != "running") {
		t.Errorf("early report: status %d, state %q", resp.StatusCode, st.State)
	}
}

func TestUnknownRun404(t *testing.T) {
	_, ts := newTestServer(t, core.RunConfig{}, Options{})
	for _, path := range []string{"/v1/runs/run-999999", "/v1/runs/run-999999/report"} {
		if code := getJSON(t, ts.URL+path, nil); code != http.StatusNotFound {
			t.Errorf("%s: status %d", path, code)
		}
	}
}

func TestPoliciesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, core.RunConfig{}, Options{})
	var body struct {
		Policies []struct {
			Name  string `json:"name"`
			About string `json:"about"`
		} `json:"policies"`
	}
	if code := getJSON(t, ts.URL+"/v1/policies", &body); code != http.StatusOK {
		t.Fatalf("policies: status %d", code)
	}
	names := make(map[string]bool)
	for _, p := range body.Policies {
		names[p.Name] = true
		if p.About == "" {
			t.Errorf("policy %q has no description", p.Name)
		}
	}
	for _, want := range []string{"shared", "utility"} {
		if !names[want] {
			t.Errorf("registry missing %q: %v", want, names)
		}
	}
}

// TestGracefulDrain: Drain stops admissions (healthz and submissions
// answer 503) but queued and in-flight runs complete and their reports
// stay fetchable.
func TestGracefulDrain(t *testing.T) {
	srv, ts := newTestServer(t, core.RunConfig{}, Options{Queue: 4, Concurrency: 1, Burst: 10})
	spec, err := os.ReadFile(examplePath)
	if err != nil {
		t.Fatal(err)
	}
	running := submit(t, ts, spec)
	queued := submit(t, ts, spec) // still in the queue when the drain starts

	done := make(chan struct{})
	go func() { srv.Drain(); close(done) }()

	// Drain flips the health check to 503.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// New submissions are refused while draining.
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !bytes.Contains(raw, []byte("draining")) {
		t.Errorf("submission during drain: status %d, body %s", resp.StatusCode, raw)
	}

	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("drain did not complete")
	}

	// Both the in-flight and the queued run finished with full reports.
	for _, sub := range []submitResp{running, queued} {
		var env core.Envelope
		if code := getJSON(t, ts.URL+sub.ReportURL, &env); code != http.StatusOK {
			t.Fatalf("%s after drain: status %d", sub.ReportURL, code)
		}
		if env.Report == "" || env.SchemaVersion != core.SchemaVersion {
			t.Errorf("%s after drain: incomplete envelope %+v", sub.ReportURL, env)
		}
	}
}

// TestRunTableEviction: at MaxRuns the oldest finished run is evicted
// to admit a new submission.
func TestRunTableEviction(t *testing.T) {
	_, ts := newTestServer(t, core.RunConfig{}, Options{MaxRuns: 2, Burst: 20})
	spec, err := os.ReadFile(examplePath)
	if err != nil {
		t.Fatal(err)
	}
	first := submit(t, ts, spec)
	pollReport(t, ts, first.ReportURL)
	second := submit(t, ts, spec)
	pollReport(t, ts, second.ReportURL)

	third := submit(t, ts, spec) // evicts first (oldest finished)
	pollReport(t, ts, third.ReportURL)
	if code := getJSON(t, ts.URL+first.StatusURL, nil); code != http.StatusNotFound {
		t.Errorf("evicted run still present: status %d", code)
	}
	if code := getJSON(t, ts.URL+second.StatusURL, nil); code != http.StatusOK {
		t.Errorf("retained run missing: status %d", code)
	}
}

// TestTraceEndpoint: a finished run's trace is Chrome trace_event JSON
// whose events cover the run's span subtree; unknown runs 404 with the
// id echoed in the body.
func TestTraceEndpoint(t *testing.T) {
	_, ts := newTestServer(t, core.RunConfig{}, Options{})
	spec, err := os.ReadFile(examplePath)
	if err != nil {
		t.Fatal(err)
	}
	sub := submit(t, ts, spec)
	pollReport(t, ts, sub.ReportURL)

	resp, err := http.Get(ts.URL + sub.StatusURL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace: status %d, body %s", resp.StatusCode, raw)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v\n%s", err, raw)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q has phase %q, want X", ev.Name, ev.Ph)
		}
		names[ev.Name]++
	}
	for _, want := range []string{"run", "compile", "oracle", "episode", "simulate"} {
		if names[want] == 0 {
			t.Errorf("trace missing %q spans: %v", want, names)
		}
	}

	// A second run's trace must not leak the first run's spans: every
	// trace is cut to its own run subtree.
	sub2 := submit(t, ts, spec)
	pollReport(t, ts, sub2.ReportURL)
	resp2, err := http.Get(ts.URL + sub2.StatusURL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	raw2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	var doc2 struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw2, &doc2); err != nil {
		t.Fatal(err)
	}
	runs := 0
	for _, ev := range doc2.TraceEvents {
		if ev.Name == "run" {
			runs++
		}
	}
	if runs != 1 {
		t.Errorf("second run's trace holds %d run spans, want exactly its own", runs)
	}

	// Unknown run: 404 with the id echoed.
	resp3, err := http.Get(ts.URL + "/v1/runs/run-999999/trace")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Error string `json:"error"`
		ID    string `json:"id"`
	}
	err = json.NewDecoder(resp3.Body).Decode(&body)
	resp3.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp3.StatusCode != http.StatusNotFound || body.ID != "run-999999" {
		t.Errorf("unknown trace: status %d, body %+v", resp3.StatusCode, body)
	}
}

// TestTraceDisabled404: a server whose session has no tracer answers
// trace requests with an explanatory 404, not a panic or empty doc.
func TestTraceDisabled404(t *testing.T) {
	sess, err := core.NewSession(core.RunConfig{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sess, Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		srv.Drain()
		ts.Close()
	})
	spec, err := os.ReadFile(examplePath)
	if err != nil {
		t.Fatal(err)
	}
	sub := submit(t, ts, spec)
	pollReport(t, ts, sub.ReportURL)
	resp, err := http.Get(ts.URL + sub.StatusURL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !bytes.Contains(raw, []byte("not enabled")) ||
		!bytes.Contains(raw, []byte(sub.ID)) {
		t.Errorf("trace without tracer: status %d, body %s", resp.StatusCode, raw)
	}
}

// TestErrorBodiesCarryRunID: 404s on the run endpoints echo the
// requested id so clients can correlate failures with submissions.
func TestErrorBodiesCarryRunID(t *testing.T) {
	_, ts := newTestServer(t, core.RunConfig{}, Options{})
	for _, path := range []string{
		"/v1/runs/run-424242",
		"/v1/runs/run-424242/report",
		"/v1/runs/run-424242/trace",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var body struct {
			Error string `json:"error"`
			ID    string `json:"id"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound || body.ID != "run-424242" || body.Error == "" {
			t.Errorf("%s: status %d, body %+v", path, resp.StatusCode, body)
		}
	}
}

// lockedBuffer is a goroutine-safe io.Writer for capturing access logs.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestAccessLog: with AccessLog set, every request emits one line, and
// run-scoped requests carry their run id.
func TestAccessLog(t *testing.T) {
	var logbuf lockedBuffer
	_, ts := newTestServer(t, core.RunConfig{}, Options{AccessLog: &logbuf})
	spec, err := os.ReadFile(examplePath)
	if err != nil {
		t.Fatal(err)
	}
	sub := submit(t, ts, spec)
	pollReport(t, ts, sub.ReportURL)
	getJSON(t, ts.URL+"/v1/runs/run-999999", nil) // 404, still logged

	// The log line lands after the handler returns; the client can see
	// the response first, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	var log string
	for time.Now().Before(deadline) {
		log = logbuf.String()
		if strings.Contains(log, "id=run-999999") {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !strings.Contains(log, "POST /v1/runs 202") || !strings.Contains(log, "id="+sub.ID) {
		t.Errorf("access log missing submission line with run id:\n%s", log)
	}
	if !strings.Contains(log, "GET /v1/runs/run-999999 404") || !strings.Contains(log, "id=run-999999") {
		t.Errorf("access log missing 404 line with run id:\n%s", log)
	}
	for _, line := range strings.Split(strings.TrimSuffix(log, "\n"), "\n") {
		if !strings.Contains(line, " id=") {
			t.Errorf("access log line without id field: %q", line)
		}
	}
}

// TestRunTimeout: with RunTimeout set and an injected deadline timer
// that trips instantly, a run reports state "timeout" (504 on report
// and trace), its worker slot is reclaimed for the next run, the
// abandoned run's late result is discarded, and the timeout counter
// lands in /metrics.
func TestRunTimeout(t *testing.T) {
	// The first run's deadline fires immediately (closed channel); later
	// runs get a nil channel, which never fires.
	var fired atomic.Bool
	tripped := make(chan time.Time)
	close(tripped)
	after := func(time.Duration) <-chan time.Time {
		if fired.CompareAndSwap(false, true) {
			return tripped
		}
		return nil
	}
	_, ts := newTestServer(t, core.RunConfig{}, Options{
		Concurrency: 1, Burst: 10,
		RunTimeout: time.Minute, After: after,
	})
	spec, err := os.ReadFile(examplePath)
	if err != nil {
		t.Fatal(err)
	}

	timedOut := submit(t, ts, spec)
	deadline := time.Now().Add(60 * time.Second)
	var code int
	var body struct {
		Error string `json:"error"`
		ID    string `json:"id"`
	}
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + timedOut.ReportURL)
		if err != nil {
			t.Fatal(err)
		}
		code = resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if code != http.StatusAccepted { // left queued/running
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code != http.StatusGatewayTimeout || body.ID != timedOut.ID ||
		!strings.Contains(body.Error, "exceeded the 1m0s deadline") {
		t.Fatalf("timed-out report: status %d, body %+v", code, body)
	}
	var st struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	if code := getJSON(t, ts.URL+timedOut.StatusURL, &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if st.State != "timeout" || !strings.Contains(st.Error, "deadline") {
		t.Errorf("timed-out status: %+v", st)
	}
	resp, err := http.Get(ts.URL + timedOut.StatusURL + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("timed-out trace: status %d, want 504", resp.StatusCode)
	}

	// The worker slot was reclaimed: a second run on the single worker
	// completes normally (its deadline timer never fires).
	second := submit(t, ts, spec)
	var env core.Envelope
	if err := json.Unmarshal(pollReport(t, ts, second.ReportURL), &env); err != nil {
		t.Fatal(err)
	}
	if env.Report == "" || env.SchemaVersion != core.SchemaVersion {
		t.Errorf("run after a timeout produced an incomplete envelope: %+v", env)
	}

	// The abandoned first run finishes in the background eventually; its
	// verdict must stay "timeout" — the state guard discards the late
	// result. (Both runs share the engine memo, so by the time the
	// second run's report is complete the first's specs are finished or
	// deduplicated; a short re-check keeps this race-free enough without
	// stalling the suite.)
	time.Sleep(50 * time.Millisecond)
	if code := getJSON(t, ts.URL+timedOut.StatusURL, &st); code != http.StatusOK || st.State != "timeout" {
		t.Errorf("late result overwrote the timeout verdict: status %d, state %q", code, st.State)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, line := range []string{
		"cachepart_runs_timeout_total 1",
		"cachepart_runs_failed_total 0",
	} {
		if !strings.Contains(string(metrics), line+"\n") {
			t.Errorf("metrics missing %q:\n%s", line, metrics)
		}
	}
}

// TestPprofGated: the pprof endpoints exist only when Options.Pprof is
// set — a production server does not expose profiling by accident.
func TestPprofGated(t *testing.T) {
	_, off := newTestServer(t, core.RunConfig{}, Options{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without -pprof: status %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, core.RunConfig{}, Options{Pprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(raw, []byte("goroutine")) {
		t.Errorf("pprof index with -pprof: status %d, body %.200s", resp.StatusCode, raw)
	}
}
