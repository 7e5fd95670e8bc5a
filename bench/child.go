package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"syscall"

	"repro/internal/obs"
)

// childEnv marks a re-executed bench binary (or test binary) as a
// workload child. Each workload runs in its own process so its peak RSS
// and its set-up cost belong to it alone.
const childEnv = "CACHEPART_BENCH_CHILD"

// traceLimit bounds a traced pass's span ring, in the parent and in a
// workload child: far more than a pass records, at about 100 bytes a
// span.
const traceLimit = 1 << 17

// childMsg is one line a child writes on its standard output.
type childMsg struct {
	Event  string     `json:"event"` // ready, listening, marked, done, error
	Digest string     `json:"digest,omitempty"`
	Addr   string     `json:"addr,omitempty"`
	Error  string     `json:"error,omitempty"`
	Done   *childDone `json:"done,omitempty"`
}

// childCmd is one line the parent writes to a child's standard input.
type childCmd struct {
	Seconds       float64 `json:"seconds,omitempty"`
	TracedSeconds float64 `json:"traced_seconds,omitempty"`
	TraceFile     string  `json:"trace_file,omitempty"`
	Mark          bool    `json:"mark,omitempty"`
}

// childDone is a child's final report.
type childDone struct {
	Ops       []opResult         `json:"ops,omitempty"`
	TracedOps []opResult         `json:"traced_ops,omitempty"`
	Errors    []string           `json:"errors,omitempty"`
	DarkFrac  float64            `json:"dark_frac,omitempty"`
	SelfMS    map[string]float64 `json:"self_ms_per_op,omitempty"`
	// Server is the engine counter movement a server child saw between
	// the parent's mark and the drain.
	Server *opResult `json:"server,omitempty"`
}

// childMain is the entry point of a workload child.
func childMain(args []string) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	o := childOpts{}
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.StringVar(&o.root, "root", ".", "repository root")
	fs.BoolVar(&o.smoke, "smoke", false, "smoke-test scale")
	fs.StringVar(&o.tmp, "tmp", "", "scratch directory")
	fs.StringVar(&o.store, "store", "", "server result store")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	out := json.NewEncoder(os.Stdout)
	fail := func(err error) int {
		out.Encode(childMsg{Event: "error", Error: err.Error()})
		return 1
	}
	in := json.NewDecoder(os.Stdin)
	if isServe(*name) {
		if err := serveChild(o, in, out); err != nil {
			return fail(err)
		}
		return 0
	}

	wl, ref, err := setupInproc(*name, o)
	if err != nil {
		return fail(err)
	}
	defer wl.close()
	out.Encode(childMsg{Event: "ready", Digest: ref.Digest})
	var cmd childCmd
	if err := in.Decode(&cmd); err != nil {
		return 0 // the parent wanted only the set-up
	}
	done := &childDone{}
	done.Ops, done.Errors = measure(wl, ref, cmd.Seconds, nil)
	if cmd.TracedSeconds > 0 {
		tr := obs.New(traceLimit)
		if wl.prepareTrace != nil {
			if err := wl.prepareTrace(tr); err != nil {
				return fail(err)
			}
		}
		ops, errs := measure(wl, ref, cmd.TracedSeconds, tr)
		done.TracedOps = ops
		done.Errors = append(done.Errors, errs...)
		done.DarkFrac, done.SelfMS = analyzeTrace(tr.Snapshot(), len(ops))
		if err := writeFile(cmd.TraceFile, tr.ChromeTrace()); err != nil {
			return fail(err)
		}
	}
	out.Encode(childMsg{Event: "done", Done: done})
	return 0
}

// child is the parent's handle on a running workload child.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Scanner
}

func startChild(ctx context.Context, args ...string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	// A child must not outlive a parent that is killed from outside.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 64<<10), 64<<20)
	return &child{cmd: cmd, stdin: stdin, out: sc}, nil
}

// next reads the child's next message; a child error becomes an error.
func (c *child) next() (childMsg, error) {
	if !c.out.Scan() {
		err := c.out.Err()
		if err == nil {
			err = errors.New("child exited early")
		}
		return childMsg{}, err
	}
	var m childMsg
	if err := json.Unmarshal(c.out.Bytes(), &m); err != nil {
		return childMsg{}, fmt.Errorf("child output: %w", err)
	}
	if m.Event == "error" {
		return m, errors.New(m.Error)
	}
	return m, nil
}

// expect reads the next message and checks its kind.
func (c *child) expect(event string) (childMsg, error) {
	m, err := c.next()
	if err == nil && m.Event != event {
		err = fmt.Errorf("child sent %q, want %q", m.Event, event)
	}
	return m, err
}

func (c *child) send(cmd childCmd) error {
	return json.NewEncoder(c.stdin).Encode(cmd)
}

// finish closes the child's input, waits for it to exit, and returns
// its peak resident set in MB.
func (c *child) finish() (float64, error) {
	c.stdin.Close()
	if err := c.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("child: %w", err)
	}
	ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("child: no resource usage")
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// kill stops a child that is still running and waits for it.
func (c *child) kill() {
	if c.cmd.ProcessState == nil {
		c.cmd.Process.Kill()
		c.cmd.Wait()
	}
}
