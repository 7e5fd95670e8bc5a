package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
)

// cmdServe runs the long-running simulation service: one warm
// core.Session behind the REST API in internal/server. SIGTERM/SIGINT
// trigger a graceful drain — stop accepting, finish in-flight runs
// (each persisting through -cache-dir's write-through store), then
// shut the listener down.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address (host:port; :0 picks a free port)")
	scale := fs.Float64("scale", 0, "instruction scale (0 = default)")
	parallel := fs.Int("parallel", 0, "worker budget for simulation batches and policy episodes (0 = GOMAXPROCS, 1 = serial)")
	quick := fs.Bool("quick", false, "reduced scale for smoke runs")
	cacheDir := fs.String("cache-dir", "", "persistent result store directory")
	queue := fs.Int("queue", 16, "pending-run queue depth (full queue answers 503)")
	concurrency := fs.Int("concurrency", 2, "runs executed at once")
	rate := fs.Float64("rate", 2, "per-client run submissions per second (token refill)")
	burst := fs.Int("burst", 5, "per-client submission burst (token bucket depth)")
	runTimeout := fs.Duration("run-timeout", 0, "per-run wall-clock deadline (0 = none); exceeded runs report state timeout")
	pprofOn := fs.Bool("pprof", false, "expose Go's profiler under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve: unexpected argument %q (scenarios are submitted over HTTP)", fs.Arg(0))
	}

	// The service always traces: GET /v1/runs/{id}/trace serves each
	// run's span subtree, and the bounded ring caps memory.
	sess, err := core.NewSessionWith(core.RunConfig{
		Scale: *scale, Quick: *quick, Parallelism: *parallel, CacheDir: *cacheDir,
	}, obs.New(0))
	if err != nil {
		return err
	}
	srv := server.New(sess, server.Options{
		Queue: *queue, Concurrency: *concurrency,
		RatePerSec: *rate, Burst: *burst, RunTimeout: *runTimeout,
		Pprof: *pprofOn, AccessLog: os.Stderr,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	hs := &http.Server{
		Handler: srv.Handler(),
		// Request timeouts: slow or stalled clients must not pin
		// connections — runs are asynchronous, so no request needs long.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	store := ""
	if *cacheDir != "" {
		store = fmt.Sprintf(", store %s", *cacheDir)
	}
	fmt.Fprintf(os.Stderr, "cachepart serve: listening on http://%s (scale %g, parallelism %d%s)\n",
		ln.Addr(), sess.Runner().Scale(), sess.Runner().Parallelism(), store)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately rather than re-draining

	fmt.Fprintln(os.Stderr, "cachepart serve: draining (finishing queued and in-flight runs)")
	srv.Drain()
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil {
		return fmt.Errorf("serve: shutdown: %w", err)
	}
	fmt.Fprintln(os.Stderr, "cachepart serve: drained")
	return nil
}
