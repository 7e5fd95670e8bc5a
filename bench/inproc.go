package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
)

// opResult is one timed operation as the child reports it: its host
// time, the digest of the reports it produced, and the engine counter
// movement it caused.
type opResult struct {
	Seconds    float64 `json:"s"`
	Digest     string  `json:"digest"`
	Sims       uint64  `json:"sims"`
	MemoHits   uint64  `json:"memo_hits"`
	DiskHits   uint64  `json:"disk_hits"`
	QueueWaitS float64 `json:"queue_wait_s"`
	MemoWaitS  float64 `json:"memo_wait_s"`
	// release, when set, frees what the operation left behind; it runs
	// after the operation is timed.
	release func()
}

func countsOf(digest string, d sched.Stats) opResult {
	r := opResult{Digest: digest, Sims: d.Simulations, MemoHits: d.MemoHits, DiskHits: d.DiskHits}
	for _, p := range d.Phases {
		switch p.Name {
		case sched.PhaseQueueWait:
			r.QueueWaitS = p.Seconds
		case sched.PhaseMemoWait:
			r.MemoWaitS = p.Seconds
		}
	}
	return r
}

// inproc is a workload the child runs in its own process.
type inproc struct {
	// op runs one timed operation; tr is nil in the untraced pass, and
	// parent is the bench span the operation's calls nest under.
	op func(tr *obs.Tracer, parent obs.SpanID) (opResult, error)
	// prepareTrace, when set, readies the traced pass (untimed).
	prepareTrace func(tr *obs.Tracer) error
	// cleanup, when set, releases what set-up created.
	cleanup func()
}

func (w *inproc) close() {
	if w.cleanup != nil {
		w.cleanup()
	}
}

// childOpts is what a child process is told about its run.
type childOpts struct {
	root  string
	seed  uint64
	smoke bool
	tmp   string // scratch directory inside the checkout
	store string // a server child's result store
}

// scale is the instruction scale of every quick-scale session.
func (o childOpts) scale() float64 {
	if o.smoke {
		return smokeScale
	}
	return sched.QuickScale
}

// smokeScale shrinks every simulation for the self-test's smoke runs:
// the same code paths at a fifth of quick scale. (At a tenth, some fuzz
// fleets stall with batch items undrained, an engine edge case of tiny
// scales.)
const smokeScale = sched.QuickScale / 5

// setupInproc builds the named workload and runs its untimed warm-up
// operation, whose result is the reference every timed operation must
// reproduce exactly (digest and simulation count).
func setupInproc(name string, o childOpts) (*inproc, opResult, error) {
	var (
		wl  *inproc
		err error
	)
	switch name {
	case "mix-cold":
		wl, err = mixCold(o)
	case "fleet-cold":
		wl, err = fleetCold(o)
	case "fleet-replay":
		wl, err = fleetReplay(o)
	case "fleet-mega-warm":
		wl, err = megaWarm(o)
	default:
		err = fmt.Errorf("unknown in-process workload %q", name)
	}
	if err != nil {
		return nil, opResult{}, err
	}
	ref, err := wl.op(nil, 0)
	if ref.release != nil {
		ref.release()
	}
	if err != nil {
		wl.close()
		return nil, opResult{}, fmt.Errorf("warm-up: %w", err)
	}
	if (name == "fleet-replay" || name == "fleet-mega-warm") && ref.Sims != 0 {
		wl.close()
		return nil, opResult{}, fmt.Errorf("warm-up ran %d simulations, want 0", ref.Sims)
	}
	return wl, ref, nil
}

// freshSession runs reqs on a new session per operation, as a cold
// client would.
func freshSession(cfg core.RunConfig, reqs []request) func(*obs.Tracer, obs.SpanID) (opResult, error) {
	return func(tr *obs.Tracer, parent obs.SpanID) (opResult, error) {
		sp := tr.Start("core.NewSession", parent)
		sess, err := core.NewSessionWith(cfg, tr)
		sp.End()
		if err != nil {
			return opResult{}, err
		}
		return runOn(sess, reqs, tr, parent)
	}
}

func runOn(sess *core.Session, reqs []request, tr *obs.Tracer, parent obs.SpanID) (opResult, error) {
	before := sess.Stats()
	d, err := runRequests(sess, reqs, tr, parent)
	if err != nil {
		return opResult{}, err
	}
	return countsOf(d, sess.Stats().Delta(before)), nil
}

// mixCold: every operation is a fresh session running the four shipped
// single-machine scenarios plus latency-3batch under the two online
// policies, so the simulator itself does the work.
func mixCold(o childOpts) (*inproc, error) {
	reqs, err := mixRequests(o.root, o.seed)
	if err != nil {
		return nil, err
	}
	return &inproc{
		op: freshSession(core.RunConfig{Scale: o.scale()}, reqs),
	}, nil
}

// fleetCold: every operation is a fresh session over an empty result
// store running the six non-mega fleet examples exactly, so the engine
// batches, dedups and writes every record.
func fleetCold(o childOpts) (*inproc, error) {
	reqs, err := loadRequests(o.root, o.seed, fleetExamples...)
	if err != nil {
		return nil, err
	}
	return &inproc{
		op: func(tr *obs.Tracer, parent obs.SpanID) (opResult, error) {
			dir, err := os.MkdirTemp(o.tmp, "store-")
			if err != nil {
				return opResult{}, err
			}
			r, err := freshSession(core.RunConfig{Scale: o.scale(), CacheDir: dir}, reqs)(tr, parent)
			r.release = func() { os.RemoveAll(dir) }
			return r, err
		},
	}, nil
}

// fleetReplay: set-up fills a result store once; every operation is a
// fresh session replaying the same six fleets from it, so the work is
// the disk reads and the fleet layer, with no simulation.
func fleetReplay(o childOpts) (*inproc, error) {
	reqs, err := loadRequests(o.root, o.seed, fleetExamples...)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.tmp, "store-")
	if err != nil {
		return nil, err
	}
	cfg := core.RunConfig{Scale: o.scale(), CacheDir: dir}
	cold, err := freshSession(cfg, reqs)(nil, 0)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("filling the store: %w", err)
	}
	replay := freshSession(cfg, reqs)
	return &inproc{
		op: func(tr *obs.Tracer, parent obs.SpanID) (opResult, error) {
			r, err := replay(tr, parent)
			if err == nil && r.Digest != cold.Digest {
				err = fmt.Errorf("replayed reports differ from the cold run (digest %s, want %s)", r.Digest, cold.Digest)
			}
			return r, err
		},
		cleanup: func() { os.RemoveAll(dir) },
	}, nil
}

// megaTraces is how many seeded arrival traces one fleet-mega-warm
// operation replays. How long the 10,000-machine placement scans run
// depends on the trace: over one trace per operation the seed alone
// moved the median by about 10% (coefficient of variation across seeds,
// against about 7% for the host); averaging four halves that.
const megaTraces = 4

// megaWarm: set-up runs fleet-mega-10k at full scale under every policy,
// once per trace; every operation reruns the traces on that warm
// session, so the load generator, fast-tier pricing and the
// 10,000-machine event loops do the work and the simulator does none.
func megaWarm(o childOpts) (*inproc, error) {
	var reqs []request
	for k := 0; k < megaTraces; k++ {
		body, err := loadTagged(o.root, megaExample, fmt.Sprintf("s%d-t%d", o.seed, k))
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, request{name: megaExample, body: body})
	}
	cfg := core.RunConfig{}
	if o.smoke {
		cfg.Scale = o.scale()
	}
	warm := func(tr *obs.Tracer) (*core.Session, string, error) {
		sess, err := core.NewSessionWith(cfg, tr)
		if err != nil {
			return nil, "", err
		}
		r, err := runOn(sess, reqs, nil, 0)
		return sess, r.Digest, err
	}
	sess, coldDigest, err := warm(nil)
	if err != nil {
		return nil, err
	}
	var traced *core.Session
	return &inproc{
		op: func(tr *obs.Tracer, parent obs.SpanID) (opResult, error) {
			s := sess
			if tr != nil {
				s = traced
			}
			r, err := runOn(s, reqs, tr, parent)
			if err == nil && r.Digest != coldDigest {
				err = fmt.Errorf("warm reports differ from the cold run (digest %s, want %s)", r.Digest, coldDigest)
			}
			return r, err
		},
		prepareTrace: func(tr *obs.Tracer) error {
			s, d, err := warm(tr)
			if err == nil && d != coldDigest {
				err = fmt.Errorf("traced warm-up differs from the untraced one")
			}
			traced = s
			return err
		},
	}, nil
}

// measure runs operations until seconds have passed (at least one),
// checking each against the reference.
func measure(wl *inproc, ref opResult, seconds float64, tr *obs.Tracer) (ops []opResult, errs []string) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(ops) == 0 || time.Now().Before(deadline) {
		sp := tr.Start("bench.op", 0)
		t0 := time.Now()
		r, err := wl.op(tr, sp.ID())
		r.Seconds = time.Since(t0).Seconds()
		sp.End()
		if r.release != nil {
			r.release()
		}
		if err == nil {
			err = sameOutput(ref, r)
		}
		if err != nil {
			errs = append(errs, fmt.Sprintf("op %d: %v", len(ops), err))
		}
		ops = append(ops, r)
	}
	return ops, errs
}

// sameOutput checks the determinism contract: identical reports and an
// identical simulation count on every operation.
func sameOutput(ref, r opResult) error {
	switch {
	case r.Digest != ref.Digest:
		return fmt.Errorf("report digest %s, want %s", r.Digest, ref.Digest)
	case r.Sims != ref.Sims:
		return fmt.Errorf("%d simulations, want %d", r.Sims, ref.Sims)
	}
	return nil
}
