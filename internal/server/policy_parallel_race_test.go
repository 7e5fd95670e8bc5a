package server

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

// TestPolicyParallelPollDuringRun exercises the full concurrent stack:
// a session fixed at parallelism 4 replays a multi-policy fleet (its
// batches and policy episodes both fan out four wide) while goroutines
// hammer the run's status and /metrics. Under -race
// (CI's test job) this fails loudly if concurrent policy episodes race
// each other, the memo shards, or the observability readers. It then
// pins the memo metrics the endpoint grew alongside the sharding.
func TestPolicyParallelPollDuringRun(t *testing.T) {
	_, ts := newTestServer(t, core.RunConfig{Parallelism: 4}, Options{Burst: 10})
	spec, err := os.ReadFile(examplePath)
	if err != nil {
		t.Fatal(err)
	}
	sub := submit(t, ts, spec)

	get := func(path string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			return // server shutting down mid-poll is fine
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{"/metrics", sub.StatusURL} {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				get(path)
				select {
				case <-stop:
					return
				default:
				}
			}
		}(path)
	}

	pollReport(t, ts, sub.ReportURL)
	close(stop)
	wg.Wait()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(body)
	for _, want := range []string{
		"cachepart_memo_wait_seconds_sum ",
		"cachepart_memo_wait_seconds_count ",
		`cachepart_memo_shard_entries{shard="0"} `,
		`cachepart_memo_shard_entries{shard="31"} `,
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q after a fleet run", want)
		}
	}
	// The run memoised pair simulations, so the shard gauges must sum to
	// a live population — zeros everywhere would mean the gauge is wired
	// to the wrong runner.
	total := 0
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "cachepart_memo_shard_entries{") {
			var shard, n int
			if _, err := fmt.Sscanf(line, `cachepart_memo_shard_entries{shard="%d"} %d`, &shard, &n); err != nil {
				t.Fatalf("unparseable shard gauge %q: %v", line, err)
			}
			total += n
		}
	}
	if total == 0 {
		t.Error("memo shard gauges sum to zero after a fleet run")
	}
}
