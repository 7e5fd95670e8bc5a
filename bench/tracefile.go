package main

import (
	"encoding/json"
	"sort"
	"time"

	"repro/internal/obs"
)

// analyzeTrace turns a traced pass's spans into per-operation self
// times by span name (milliseconds) and the session's dark fraction:
// the share of every "run" span that none of its child spans covers.
//
// A span's self time is its duration minus the part of its interval
// its children cover, counted once where children overlap. Spans
// recorded before the pass's first operation (untimed warm-up) are
// ignored. The session opens its "run" spans as roots, so each is
// adopted by the shortest bench "core.RunScenario" span enclosing it.
func analyzeTrace(recs []obs.SpanRecord, ops int) (float64, map[string]float64) {
	from := time.Duration(-1)
	for _, r := range recs {
		if r.Name == "bench.op" {
			from = r.Start
			break
		}
	}
	if from < 0 || ops == 0 {
		return 0, nil
	}
	var kept []obs.SpanRecord
	for _, r := range recs {
		if r.Start >= from {
			kept = append(kept, r)
		}
	}
	self, dark := selfTimes(kept)
	perOp := map[string]float64{}
	for name, d := range self {
		perOp[name] = d.Seconds() * 1e3 / float64(ops)
	}
	return dark, perOp
}

// selfTimes sums self time by span name and returns the dark fraction
// of the "run" spans among recs.
func selfTimes(recs []obs.SpanRecord) (map[string]time.Duration, float64) {
	var calls []obs.SpanRecord
	for _, r := range recs {
		if r.Name == "core.RunScenario" {
			calls = append(calls, r)
		}
	}
	children := map[obs.SpanID][]obs.SpanRecord{}
	for _, r := range recs {
		parent := r.Parent
		if parent == 0 && r.Name != "bench.op" {
			parent = enclosing(calls, r)
		}
		if parent != 0 {
			children[parent] = append(children[parent], r)
		}
	}
	self := map[string]time.Duration{}
	var runSelf, runDur time.Duration
	for _, r := range recs {
		s := r.Dur - covered(r, children[r.ID])
		self[r.Name] += s
		if r.Name == "run" {
			runSelf += s
			runDur += r.Dur
		}
	}
	dark := 0.0
	if runDur > 0 {
		dark = runSelf.Seconds() / runDur.Seconds()
	}
	return self, dark
}

// enclosing returns the shortest of calls whose interval contains r.
func enclosing(calls []obs.SpanRecord, r obs.SpanRecord) obs.SpanID {
	var best obs.SpanID
	var bestDur time.Duration
	for _, p := range calls {
		if p.Start <= r.Start && r.Start+r.Dur <= p.Start+p.Dur && (best == 0 || p.Dur < bestDur) {
			best, bestDur = p.ID, p.Dur
		}
	}
	return best
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p obs.SpanRecord, kids []obs.SpanRecord) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.Start+k.Dur, p.Start+p.Dur)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// mergeTraces combines Chrome trace documents into one, each under its
// own process id and name, so chrome://tracing shows the workload and
// the layer measurements as separate process tracks.
func mergeTraces(names []string, docs [][]byte) ([]byte, error) {
	type event = map[string]any
	var all []event
	for i, raw := range docs {
		pid := i + 1
		all = append(all, event{
			"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
			"args": map[string]string{"name": names[i]},
		})
		var d struct {
			TraceEvents []event `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &d); err != nil {
			return nil, err
		}
		for _, e := range d.TraceEvents {
			e["pid"] = pid
			all = append(all, e)
		}
	}
	return json.Marshal(map[string]any{"traceEvents": all, "displayTimeUnit": "ms"})
}
