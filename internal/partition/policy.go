package partition

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cache"
)

// JobView is one job of a mix as a partition policy sees it: the static
// shape at plan time, plus live interval counters when the policy is
// consulted during a run.
type JobView struct {
	// App names the job's application.
	App string
	// Latency marks the latency-critical job (the scenario layer's
	// latency role, the pair shape's foreground).
	Latency bool
	// Declared is the job's explicitly declared way range [first, lim)
	// (the explicit policy's input; 0,0 = none).
	Declared [2]int
	// Ways is the job's current allocation in ways (live snapshots).
	Ways int
	// MPKI / Instructions are the job's interval counter readings
	// (live snapshots only; zero at plan time).
	MPKI         float64
	Instructions float64
	// Utility is the job's cumulative marginal-utility curve —
	// Utility[w-1] estimates the demand hits w ways would have served —
	// populated only for UtilityConsumer policies during a run.
	Utility []float64
}

// Snapshot is the state a policy decides from. At plan time (and at
// attach, before the run starts) Live is false and only the static
// shape is populated; the decision loop then delivers a live snapshot
// at every sampling interval.
type Snapshot struct {
	// Now is the simulated time of the decision (live snapshots).
	Now float64
	// Assoc is the LLC associativity; 0 at validate time, when the
	// platform is not yet known.
	Assoc int
	// Live distinguishes interval decisions (true) from plan-time and
	// attach-time decisions (false).
	Live bool
	Jobs []JobView
}

// latencyIndex returns the index of the single latency job, or -1.
func (s *Snapshot) latencyIndex() int {
	at := -1
	for i := range s.Jobs {
		if s.Jobs[i].Latency {
			if at >= 0 {
				return -1
			}
			at = i
		}
	}
	return at
}

// Policy is a registered way-partitioning scheme — the extension point
// every layer prices through a Plan. A policy is identified by its Name and canonical KeyParams;
// together (plus the sampling interval, for online policies) they form
// the RunKey folded into engine memo keys, so results can never alias
// across policies or parameterizations.
type Policy interface {
	// Name is the registry key and the spelling used in scenario files
	// and CLI flags.
	Name() string
	// KeyParams renders the policy's parameters canonically for memo
	// keys ("" for a parameterless policy). Equal configurations must
	// render equal strings; distinct configurations must not.
	KeyParams() string
	// Online reports whether the policy monitors the run: online
	// policies are re-consulted by the decision loop at every sampling
	// interval, offline policies decide once from the mix shape.
	Online() bool
	// CheckMix validates the policy against a mix shape (s.Live is
	// false; s.Assoc may be 0 when the platform is not yet known).
	CheckMix(s *Snapshot) error
	// Decide returns one LLC way mask per job (the zero mask means the
	// full cache). Offline policies must be pure functions of the
	// snapshot; online policies may keep per-run state across calls.
	Decide(s *Snapshot) []cache.WayMask
	// Instance returns the value to drive one run with: offline
	// policies return themselves, online policies a fresh per-run
	// state. Registered policies are shared and must stay immutable.
	Instance() Policy
}

// Searcher is implemented by policies whose decision needs measured
// candidate runs (the biased exhaustive search): the policy's Plan
// sweeps every latency-vs-rest split and the policy picks the winner.
type Searcher interface {
	Policy
	// Pick returns the winning candidate's index.
	Pick(cands []Candidate) int
}

// UtilityConsumer is implemented by online policies whose Decide reads
// JobView.Utility; the decision loop attaches a shadow utility monitor
// (perfmon.UtilitySet) per job for them.
type UtilityConsumer interface {
	Policy
	// UMONSampleShift is log2 of the monitor's set-sampling stride.
	UMONSampleShift() uint
}

// Factory builds a configured policy from a scenario file's params
// block (nil when absent). Factories must reject unknown fields so
// typos in scenario files fail loudly.
type Factory func(params json.RawMessage) (Policy, error)

type registration struct {
	factory Factory
	about   string
}

var registry = map[string]registration{}

// Register adds a policy factory under name. It panics on a duplicate
// name — policies register from init functions, and two packages
// claiming one name is a programming error that must not be silently
// resolved by load order.
func Register(name, about string, f Factory) {
	if name == "" || f == nil {
		panic("partition: Register with empty name or nil factory")
	}
	if _, dup := registry[name]; dup {
		panic("partition: duplicate policy registration " + strconv.Quote(name))
	}
	registry[name] = registration{factory: f, about: about}
}

// New builds the named policy with the given params (nil = defaults).
func New(name string, params json.RawMessage) (Policy, error) {
	reg, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("partition: unknown partition policy %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	p, err := reg.factory(params)
	if err != nil {
		return nil, fmt.Errorf("partition: policy %s: %w", name, err)
	}
	return p, nil
}

// MustNew is New for statically known names (experiment drivers).
func MustNew(name string, params json.RawMessage) Policy {
	p, err := New(name, params)
	if err != nil {
		panic(err.Error())
	}
	return p
}

// Names lists the registered policy names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// About returns the registered one-line description of a policy.
func About(name string) string { return registry[name].about }

// StaticPolicies returns the three §5.2 static schemes in the paper's
// presentation order, with default parameters.
func StaticPolicies() []Policy {
	return []Policy{MustNew("shared", nil), MustNew("fair", nil), MustNew("biased", nil)}
}

// RunKey renders the canonical engine memo-key fragment identifying an
// online policy run: name, parameters, sampling interval, and the
// latency-role vector. The roles matter because they are a decision
// input the mix's own key fields do not carry — two mixes identical in
// every job field but with the latency role on different jobs monitor
// differently and must not share a cache entry. Feeding RunKey into
// the spec key (sched.MixSpec.PolicyKey) is what lets
// controller-driven runs be memoized and disk-cached without ever
// aliasing across policies, parameterizations, or role assignments.
func RunKey(p Policy, intervalSeconds float64, latency []bool) string {
	buf := make([]byte, 0, 64)
	buf = append(buf, p.Name()...)
	buf = append(buf, '{')
	buf = append(buf, p.KeyParams()...)
	buf = append(buf, "}@"...)
	buf = strconv.AppendFloat(buf, intervalSeconds, 'g', -1, 64)
	buf = append(buf, "/lat"...)
	for _, l := range latency {
		if l {
			buf = append(buf, '1')
		} else {
			buf = append(buf, '0')
		}
	}
	return string(buf)
}

// ValidateMasks checks a Decide result against the mix: one mask per
// job, each either zero (full cache) or a non-empty subset of the
// cache's ways. It is the mask-side analogue of machine.ValidateSlots
// for placements; the decision loop and the policy fuzz test both run
// every decision through it.
func ValidateMasks(assoc, jobs int, masks []cache.WayMask) error {
	if len(masks) != jobs {
		return fmt.Errorf("partition: decision returned %d masks for %d jobs", len(masks), jobs)
	}
	full := cache.FullMask(assoc)
	for i, m := range masks {
		if m == 0 {
			continue
		}
		if m&^full != 0 {
			return fmt.Errorf("partition: job %d mask %s exceeds the %d-way LLC", i, m, assoc)
		}
	}
	return nil
}

// RangeOfMask converts a contiguous way mask to its [first, lim)
// range. The zero mask is the full cache (0, 0). ok is false for a
// non-contiguous mask, which has no range form.
func RangeOfMask(m cache.WayMask) (first, lim int, ok bool) {
	if m == 0 {
		return 0, 0, true
	}
	first = bits.TrailingZeros32(uint32(m))
	lim = 32 - bits.LeadingZeros32(uint32(m))
	if cache.MaskRange(first, lim) != m {
		return 0, 0, false
	}
	return first, lim, true
}

// splitMasks is the canonical latency-vs-rest split: the latency job
// (index fg) replaces in ways [0, w), every other job in [w, assoc).
func splitMasks(n, fg, w, assoc int) []cache.WayMask {
	masks := make([]cache.WayMask, n)
	fgMask := cache.MaskFirstN(w)
	bgMask := cache.MaskRange(w, assoc)
	for i := range masks {
		if i == fg {
			masks[i] = fgMask
		} else {
			masks[i] = bgMask
		}
	}
	return masks
}
