// Package server exposes a core.Session over HTTP: `cachepart serve`.
//
// One long-lived session backs every request, so concurrent clients'
// runs deduplicate against the same warm in-memory memo and — when the
// session has a cache directory — the same persistent store. The API:
//
//	POST /v1/runs             submit scenario/fleet JSON (or {"spec": ..., "config": ...})
//	GET  /v1/runs/{id}        status + live progress counters
//	GET  /v1/runs/{id}/report the versioned report envelope (core.Envelope)
//	GET  /v1/runs/{id}/trace  the run's span tree as Chrome trace_event JSON
//	GET  /v1/policies         the partition-policy registry
//	GET  /healthz             liveness (503 while draining)
//	GET  /metrics             engine + service counters and histograms, Prometheus text format
//	GET  /debug/pprof/*       Go profiling endpoints (Options.Pprof only)
//
// Robustness is part of the contract: per-client token-bucket rate
// limiting (429 + Retry-After), a bounded run queue with backpressure
// (503 + Retry-After), capped request bodies, panic-isolated run
// goroutines, and graceful drain — Drain stops admissions, finishes
// queued and in-flight runs (each persisting through the session's
// write-through disk store), then returns.
package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/scenario"
	"repro/internal/sched"
)

// Options configure the service limits. Zero values select defaults.
type Options struct {
	// Queue is the pending-run queue depth (default 16). A full queue
	// rejects submissions with 503 + Retry-After.
	Queue int
	// Concurrency is how many runs execute at once (default 2). Each
	// run already fans across the engine's worker pool; more than a few
	// concurrent runs just contend for the same CPUs.
	Concurrency int
	// RatePerSec and Burst shape each client's submission token bucket
	// (defaults 2/s, burst 5).
	RatePerSec float64
	Burst      int
	// MaxBody caps a submission body in bytes (default 1 MiB).
	MaxBody int64
	// MaxRuns bounds the run table (default 1024); when full, the
	// oldest finished run is evicted to admit a new one.
	MaxRuns int
	// Now is the clock (default time.Now); tests inject one to step the
	// rate limiter deterministically.
	Now func() time.Time
	// RunTimeout, when positive, bounds one run's wall clock: a run
	// exceeding it reports state "timeout" (504 on the report endpoint)
	// and its worker slot is reclaimed immediately. The engine has no
	// mid-simulation cancellation point, so the abandoned run finishes
	// in the background and its result is discarded. Zero (the
	// default) means no deadline (`cachepart serve -run-timeout`).
	RunTimeout time.Duration
	// After is the deadline timer (default time.After); tests inject
	// one to trip RunTimeout deterministically.
	After func(time.Duration) <-chan time.Time
	// Pprof exposes Go's /debug/pprof/* profiling endpoints. Off by
	// default: profiling a shared service is an operator decision
	// (`cachepart serve -pprof`).
	Pprof bool
	// AccessLog, when non-nil, receives one line per request:
	// timestamp, method, path, status, bytes, duration, and the run id
	// (`id=run-000001`, `id=-` when the request has none), so client
	// failures are correlatable with /v1/runs/{id} state.
	AccessLog io.Writer
}

func (o Options) withDefaults() Options {
	if o.Queue <= 0 {
		o.Queue = 16
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 2
	}
	if o.RatePerSec <= 0 {
		o.RatePerSec = 2
	}
	if o.Burst <= 0 {
		o.Burst = 5
	}
	if o.MaxBody <= 0 {
		o.MaxBody = 1 << 20
	}
	if o.MaxRuns <= 0 {
		o.MaxRuns = 1024
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.After == nil {
		o.After = time.After
	}
	return o
}

// Run states.
const (
	stateQueued  = "queued"
	stateRunning = "running"
	stateDone    = "done"
	stateFailed  = "failed"
	stateTimeout = "timeout" // exceeded Options.RunTimeout
)

// job is one submitted run.
type job struct {
	id        string
	sc        *scenario.Scenario
	submitted time.Time

	mu      sync.Mutex
	state   string
	started core.EngineStats // engine totals when the run started
	stats   core.EngineStats // envelope stats, done only
	env     []byte           // envelope JSON, done only
	span    obs.SpanID       // root span in the session tracer, done only
	errText string           // failed only
}

// Server routes HTTP traffic onto one core.Session.
type Server struct {
	sess *core.Session
	opt  Options
	mux  *http.ServeMux
	lim  *limiter

	mu       sync.Mutex
	draining bool
	jobs     map[string]*job
	order    []string // submission order, for bounded retention
	nextID   uint64
	queue    chan *job

	wg      sync.WaitGroup // run workers
	running atomic.Int64
	submitted, completed, failed, timedOut,
	rejectedRate, rejectedQueue atomic.Uint64

	// Service histograms (hand-rolled Prometheus text; see obs).
	queueWaitH *obs.Histogram // submission -> worker pickup
	rateWaitH  *obs.Histogram // suggested Retry-After of rate-limit drops
	histMu     sync.Mutex
	runDur     map[string]*obs.Histogram // run duration by kind/fidelity label
}

// New builds a server over a session and starts its run workers. Call
// Drain before discarding it.
func New(sess *core.Session, opt Options) *Server {
	s := &Server{
		sess:       sess,
		opt:        opt.withDefaults(),
		jobs:       make(map[string]*job),
		queueWaitH: obs.NewHistogram(obs.DurationBounds...),
		rateWaitH:  obs.NewHistogram(obs.DurationBounds...),
		runDur:     make(map[string]*obs.Histogram),
	}
	s.queue = make(chan *job, s.opt.Queue)
	s.lim = newLimiter(s.opt.RatePerSec, s.opt.Burst, s.opt.Now)

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/runs/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/runs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/policies", s.handlePolicies)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if s.opt.Pprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}

	for i := 0; i < s.opt.Concurrency; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the routed HTTP handler, wrapped in the access-log
// middleware when Options.AccessLog is set.
func (s *Server) Handler() http.Handler {
	if s.opt.AccessLog == nil {
		return s.mux
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		lr := &logRecorder{ResponseWriter: w, runID: "-"}
		s.mux.ServeHTTP(lr, r)
		if lr.status == 0 {
			lr.status = http.StatusOK
		}
		fmt.Fprintf(s.opt.AccessLog, "%s %s %s %d %dB %.1fms id=%s\n",
			s.opt.Now().UTC().Format(time.RFC3339), r.Method, r.URL.Path,
			lr.status, lr.bytes, float64(time.Since(t0))/float64(time.Millisecond), lr.runID)
	})
}

// logRecorder captures the status, byte count, and associated run id
// of one response for the access log.
type logRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
	runID  string
}

func (l *logRecorder) WriteHeader(code int) {
	l.status = code
	l.ResponseWriter.WriteHeader(code)
}

func (l *logRecorder) Write(b []byte) (int, error) {
	if l.status == 0 {
		l.status = http.StatusOK
	}
	n, err := l.ResponseWriter.Write(b)
	l.bytes += n
	return n, err
}

// setRunID tags the in-flight access-log line with a run id. Handlers
// call it as soon as they know which run a request concerns — including
// for unknown ids, so a client's 404 is still correlatable.
func setRunID(w http.ResponseWriter, id string) {
	if lr, ok := w.(*logRecorder); ok && id != "" {
		lr.runID = id
	}
}

// Drain stops admitting runs (submissions and healthz answer 503),
// lets queued and in-flight runs finish, and returns once the engine
// is idle. Status and report endpoints keep serving, so clients polling
// an in-flight run still collect its complete report. Idempotent;
// every caller blocks until the drain completes.
func (s *Server) Drain() {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue) // workers finish the queued tail, then exit
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// worker executes queued runs until the queue closes at drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.run(j)
	}
}

// run executes one job, isolating panics (a spec that trips an engine
// invariant must fail its own run, not the process). With a RunTimeout
// configured, the scenario executes on a detached goroutine so the
// worker can abandon it at the deadline and reclaim its slot.
func (s *Server) run(j *job) {
	s.running.Add(1)
	defer s.running.Add(-1)
	start := s.opt.Now()
	s.queueWaitH.Observe(start.Sub(j.submitted).Seconds())
	st := s.sess.Stats()
	j.mu.Lock()
	j.state = stateRunning
	j.started = core.EngineStats{
		Parallelism: st.Parallelism, Simulations: st.Simulations,
		MemoHits: st.MemoHits, DiskHits: st.DiskHits,
	}
	j.mu.Unlock()

	// Overrides were applied at submit time; run the spec as-is.
	exec := func() (res *core.RunResult, err error) {
		defer func() {
			if p := recover(); p != nil {
				res, err = nil, fmt.Errorf("run panicked: %v", p)
			}
		}()
		return s.sess.RunScenario(j.sc, core.RunConfig{})
	}
	if s.opt.RunTimeout <= 0 {
		res, err := exec()
		s.finish(j, res, err, start)
		return
	}
	type outcome struct {
		res *core.RunResult
		err error
	}
	ch := make(chan outcome, 1) // buffered: an abandoned run must not leak its goroutine
	go func() {
		res, err := exec()
		ch <- outcome{res, err}
	}()
	select {
	case out := <-ch:
		s.finish(j, out.res, out.err, start)
	case <-s.opt.After(s.opt.RunTimeout):
		s.timedOut.Add(1)
		j.mu.Lock()
		j.state = stateTimeout
		j.errText = fmt.Sprintf("run exceeded the %s deadline", s.opt.RunTimeout)
		j.mu.Unlock()
		// The detached goroutine finishes in the background; finish's
		// state guard discards its result.
		go func() {
			out := <-ch
			s.finish(j, out.res, out.err, start)
		}()
	}
}

// finish records one run's outcome. The state guard keeps a timed-out
// job's verdict final: when the abandoned goroutine eventually
// completes, its result (or failure) is discarded.
func (s *Server) finish(j *job, res *core.RunResult, err error, start time.Time) {
	j.mu.Lock()
	if j.state != stateRunning {
		j.mu.Unlock()
		return
	}
	if err != nil {
		j.state = stateFailed
		j.errText = err.Error()
		j.mu.Unlock()
		s.failed.Add(1)
		return
	}
	j.state = stateDone
	j.stats = res.Envelope.Stats
	j.env = res.Envelope.JSON()
	j.span = res.Span
	j.mu.Unlock()
	s.observeRun(res.Envelope.Kind, res.Envelope.Fidelity, s.opt.Now().Sub(start).Seconds())
	s.completed.Add(1)
}

// observeRun records one completed run's duration in the histogram for
// its kind/fidelity label set.
func (s *Server) observeRun(kind, fidelity string, seconds float64) {
	label := `kind="` + kind + `"`
	if fidelity != "" {
		label += `,fidelity="` + fidelity + `"`
	}
	s.histMu.Lock()
	h := s.runDur[label]
	if h == nil {
		h = obs.NewHistogram(obs.DurationBounds...)
		s.runDur[label] = h
	}
	s.histMu.Unlock()
	h.Observe(seconds)
}

// submission is the wrapped POST body form; a bare scenario/fleet JSON
// object is equally accepted.
type submission struct {
	Spec   json.RawMessage `json:"spec"`
	Config core.RunConfig  `json:"config"`
}

// decodeSubmission accepts either form. The wrapper is recognized by
// its spec key; anything else is treated as a bare spec so parse errors
// carry the same text the CLI prints for a bad file.
func decodeSubmission(body []byte) (spec []byte, cfg core.RunConfig) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var sub submission
	if err := dec.Decode(&sub); err == nil && len(sub.Spec) > 0 {
		return sub.Spec, sub.Config
	}
	return body, core.RunConfig{}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeError(w, http.StatusServiceUnavailable, "server draining; not accepting new runs")
		return
	}
	if ok, wait := s.lim.allow(clientKey(r.RemoteAddr)); !ok {
		s.rejectedRate.Add(1)
		s.rateWaitH.Observe(wait.Seconds())
		w.Header().Set("Retry-After", retryAfter(wait))
		writeError(w, http.StatusTooManyRequests, "submission rate limit exceeded")
		return
	}
	body, err := readBody(w, r, s.opt.MaxBody)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec, cfg := decodeSubmission(body)
	if err := cfg.PerRunOnly(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := cfg.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	sc, err := scenario.Parse(spec)
	if err != nil {
		// The same one-line text the CLI prints for this spec.
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := core.ApplyOverrides(sc, cfg); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	j := &job{sc: sc, state: stateQueued, submitted: s.opt.Now()}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server draining; not accepting new runs")
		return
	}
	if len(s.jobs) >= s.opt.MaxRuns && !s.evictLocked() {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "run table full of unfinished runs")
		return
	}
	s.nextID++
	j.id = fmt.Sprintf("run-%06d", s.nextID)
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
	default:
		s.mu.Unlock()
		s.rejectedQueue.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "run queue full; retry later")
		return
	}
	s.mu.Unlock()
	s.submitted.Add(1)
	setRunID(w, j.id)

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]string{
		"id":         j.id,
		"state":      stateQueued,
		"status_url": "/v1/runs/" + j.id,
		"report_url": "/v1/runs/" + j.id + "/report",
	})
}

// evictLocked drops the oldest finished run to admit a new one; false
// when every retained run is still queued or executing.
func (s *Server) evictLocked() bool {
	for i, id := range s.order {
		j := s.jobs[id]
		j.mu.Lock()
		finished := j.state == stateDone || j.state == stateFailed || j.state == stateTimeout
		j.mu.Unlock()
		if finished {
			delete(s.jobs, id)
			s.order = append(s.order[:i], s.order[i+1:]...)
			return true
		}
	}
	return false
}

// status is the GET /v1/runs/{id} shape (also returned by the report
// endpoint for runs that have not finished).
type status struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Progress counts engine activity since the run started (live
	// totals while running, the envelope stats once done). On a server
	// executing runs concurrently the live delta includes overlapping
	// runs' activity — the engine pool is shared.
	Progress core.EngineStats `json:"progress"`
	Error    string           `json:"error,omitempty"`
}

func (s *Server) jobByID(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) statusOf(j *job) status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := status{ID: j.id, State: j.state, Error: j.errText}
	switch j.state {
	case stateRunning:
		now := s.sess.Stats()
		st.Progress = core.EngineStats{
			Parallelism: now.Parallelism,
			Simulations: now.Simulations - j.started.Simulations,
			MemoHits:    now.MemoHits - j.started.MemoHits,
			DiskHits:    now.DiskHits - j.started.DiskHits,
		}
	case stateDone:
		st.Progress = j.stats
	}
	return st
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	setRunID(w, id)
	j := s.jobByID(id)
	if j == nil {
		writeRunError(w, http.StatusNotFound, "unknown run id", id)
		return
	}
	writeJSON(w, s.statusOf(j))
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	setRunID(w, id)
	j := s.jobByID(id)
	if j == nil {
		writeRunError(w, http.StatusNotFound, "unknown run id", id)
		return
	}
	j.mu.Lock()
	state, env, errText := j.state, j.env, j.errText
	j.mu.Unlock()
	switch state {
	case stateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(env) // core.Envelope bytes, verbatim
	case stateFailed:
		writeRunError(w, http.StatusInternalServerError, errText, id)
	case stateTimeout:
		writeRunError(w, http.StatusGatewayTimeout, errText, id)
	default: // still queued or running: say so, keep polling
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(s.statusOf(j))
	}
}

// handleTrace serves a finished run's span subtree as Chrome
// trace_event JSON cut from the session tracer.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	setRunID(w, id)
	j := s.jobByID(id)
	if j == nil {
		writeRunError(w, http.StatusNotFound, "unknown run id", id)
		return
	}
	tr := s.sess.Tracer()
	if tr == nil {
		writeRunError(w, http.StatusNotFound, "tracing is not enabled on this server", id)
		return
	}
	j.mu.Lock()
	state, span, errText := j.state, j.span, j.errText
	j.mu.Unlock()
	switch state {
	case stateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(tr.ChromeTraceUnder(span))
	case stateFailed:
		writeRunError(w, http.StatusInternalServerError, errText, id)
	case stateTimeout:
		writeRunError(w, http.StatusGatewayTimeout, errText, id)
	default: // still queued or running: say so, keep polling
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(s.statusOf(j))
	}
}

func (s *Server) handlePolicies(w http.ResponseWriter, _ *http.Request) {
	type entry struct {
		Name  string `json:"name"`
		About string `json:"about"`
	}
	var list []entry
	for _, name := range partition.Names() {
		list = append(list, entry{Name: name, About: partition.About(name)})
	}
	writeJSON(w, map[string]any{"policies": list})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.isDraining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.sess.Stats()
	s.mu.Lock()
	queued := len(s.queue)
	retained := len(s.jobs)
	draining := 0
	if s.draining {
		draining = 1
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "cachepart_engine_parallelism %d\n", st.Parallelism)
	fmt.Fprintf(w, "cachepart_engine_simulations_total %d\n", st.Simulations)
	fmt.Fprintf(w, "cachepart_engine_memo_hits_total %d\n", st.MemoHits)
	fmt.Fprintf(w, "cachepart_engine_disk_hits_total %d\n", st.DiskHits)
	fmt.Fprintf(w, "cachepart_engine_busy_seconds_total %g\n", st.BusySeconds)
	fmt.Fprintf(w, "cachepart_runs_submitted_total %d\n", s.submitted.Load())
	fmt.Fprintf(w, "cachepart_runs_completed_total %d\n", s.completed.Load())
	fmt.Fprintf(w, "cachepart_runs_failed_total %d\n", s.failed.Load())
	fmt.Fprintf(w, "cachepart_runs_timeout_total %d\n", s.timedOut.Load())
	fmt.Fprintf(w, "cachepart_runs_rejected_total{reason=\"rate_limit\"} %d\n", s.rejectedRate.Load())
	fmt.Fprintf(w, "cachepart_runs_rejected_total{reason=\"queue_full\"} %d\n", s.rejectedQueue.Load())
	fmt.Fprintf(w, "cachepart_runs_queued %d\n", queued)
	fmt.Fprintf(w, "cachepart_runs_running %d\n", s.running.Load())
	fmt.Fprintf(w, "cachepart_runs_retained %d\n", retained)
	fmt.Fprintf(w, "cachepart_draining %d\n", draining)
	fmt.Fprintf(w, "cachepart_engine_queue_depth %d\n", st.QueueDepth)
	fmt.Fprintf(w, "cachepart_engine_active_workers %d\n", st.ActiveWorkers)
	// Memo contention roll-up: the memo-wait phase counts genuine
	// singleflight joins, re-published as a Prometheus summary so a
	// dashboard can alert on join time without parsing phase labels.
	var memoWaitSec float64
	var memoWaitN uint64
	for _, p := range st.Phases {
		fmt.Fprintf(w, "cachepart_engine_phase_seconds_total{phase=%q} %g\n", p.Name, p.Seconds)
		fmt.Fprintf(w, "cachepart_engine_phase_runs_total{phase=%q} %d\n", p.Name, p.Count)
		if p.Name == sched.PhaseMemoWait {
			memoWaitSec, memoWaitN = p.Seconds, p.Count
		}
	}
	fmt.Fprintf(w, "cachepart_memo_wait_seconds_sum %g\n", memoWaitSec)
	fmt.Fprintf(w, "cachepart_memo_wait_seconds_count %d\n", memoWaitN)
	for i, n := range s.sess.Runner().MemoShardSizes() {
		fmt.Fprintf(w, "cachepart_memo_shard_entries{shard=\"%d\"} %d\n", i, n)
	}
	s.queueWaitH.WriteProm(w, "cachepart_run_queue_wait_seconds", "")
	s.rateWaitH.WriteProm(w, "cachepart_rate_limit_wait_seconds", "")
	s.histMu.Lock()
	labels := make([]string, 0, len(s.runDur))
	for l := range s.runDur {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		s.runDur[l].WriteProm(w, "cachepart_run_duration_seconds", l)
	}
	s.histMu.Unlock()
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// readBody reads a capped request body; oversize bodies surface as a
// one-line error instead of a connection reset.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(body); err != nil {
		return nil, fmt.Errorf("request body over %d bytes", limit)
	}
	return buf.Bytes(), nil
}

func retryAfter(wait time.Duration) string {
	secs := int(wait / time.Second)
	if wait%time.Second != 0 || secs == 0 {
		secs++ // ceil: never tell a client to retry too early
	}
	return strconv.Itoa(secs)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(map[string]string{"error": msg})
}

// writeRunError is writeError with the run id the failure concerns
// echoed in the body, so clients (and log scrapers) can correlate
// errors with submissions without parsing the URL.
func writeRunError(w http.ResponseWriter, code int, msg, id string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(map[string]string{"error": msg, "id": id})
}
