// Package fuzz generates random but valid scenarios — single-machine
// job mixes and fleet definitions with event timelines — from a uint64
// seed. The generator is deterministic (the same seed always yields
// the same scenario), so the fuzz harness's findings reproduce and its
// seed corpus stays meaningful. Generation is biased toward small,
// quick-to-simulate shapes: the properties under test (validation,
// JSON round-tripping, byte-identical reports across parallelism and
// cache configurations) do not need big fleets to fail.
package fuzz

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/loadgen"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// Generate derives a scenario from seed: roughly one in three is a
// single-machine mix, the rest are small fleets, most with an event
// timeline.
func Generate(seed uint64) *scenario.Scenario {
	r := rng.New(seed)
	apps := workload.RepresentativeNames()
	if r.Intn(3) == 0 {
		return genMix(r, apps, seed)
	}
	return genFleet(r, apps, seed)
}

// genMix builds a one-latency-job mix with up to two batch co-runners
// under a random partition policy — every registered policy accepts
// this shape.
func genMix(r *rng.Stream, apps []string, seed uint64) *scenario.Scenario {
	sc := &scenario.Scenario{Name: fmt.Sprintf("fuzz-mix-%d", seed)}
	sc.Jobs = append(sc.Jobs, scenario.JobDef{
		App: apps[r.Intn(len(apps))], Role: scenario.RoleLatency,
	})
	for i, n := 0, r.Intn(3); i < n; i++ {
		sc.Jobs = append(sc.Jobs, scenario.JobDef{
			App: apps[r.Intn(len(apps))], Role: scenario.RoleBatch,
			Threads: 1 + r.Intn(2),
		})
	}
	pols := scenario.PartitionPolicies()
	sc.Partition.Policy = scenario.PolicyRef{Name: pols[r.Intn(len(pols))]}
	return sc
}

// genFleet builds a 2-5 machine fleet over a short trace, usually with
// a valid event timeline: failures and drains always paired with a
// later machine-up, mid-run batch arrivals/cancels, and load spikes.
func genFleet(r *rng.Stream, apps []string, seed uint64) *scenario.Scenario {
	machines := 2 + r.Intn(4)
	duration := 0.02 + float64(r.Intn(4))*0.01
	def := &fleet.Def{
		Machines: machines,
		Duration: duration,
		Seed:     fmt.Sprintf("fuzz-%d", seed%997),
	}
	if r.Intn(2) == 0 {
		def.Partition = "shared"
	} // else the biased default
	switch r.Intn(5) {
	case 0:
		def.Fidelity = fleet.FidelityFast
	case 1:
		def.Fidelity = fleet.FidelityAuto
	}

	for i, n := 0, 1+r.Intn(2); i < n; i++ {
		def.Arrivals = append(def.Arrivals, loadgen.RequestClass{
			App:  apps[r.Intn(len(apps))],
			Rate: float64(20 + 20*r.Intn(5)),
		})
	}
	for i, n := 0, 1+r.Intn(2); i < n; i++ {
		def.Backlog = append(def.Backlog, loadgen.BatchDef{
			App:   apps[r.Intn(len(apps))],
			Count: 1 + r.Intn(3),
		})
	}
	if r.Intn(3) > 0 {
		def.Events = genTimeline(r, apps, machines, duration)
		if len(def.Events) > 0 && r.Intn(2) == 0 {
			def.Hysteresis = duration / 8
		}
	}
	return &scenario.Scenario{
		Name:  fmt.Sprintf("fuzz-fleet-%d", seed),
		Fleet: def,
	}
}

// genTimeline emits a causally ordered event list: timestamps strictly
// advance, a machine goes down only while up (and never the last one),
// and every down machine comes back up before the timeline ends.
func genTimeline(r *rng.Stream, apps []string, machines int, duration float64) []fleet.Event {
	var evs []fleet.Event
	down := make([]bool, machines)
	nDown := 0
	t := 0.0
	step := func() {
		t += duration * float64(1+r.Intn(8)) / 16
	}
	for i, n := 0, r.Intn(6); i < n; i++ {
		step()
		switch r.Intn(6) {
		case 0, 1: // machine-down (failure or drain) when one can be spared
			if nDown+1 < machines {
				mi := r.Intn(machines)
				for down[mi] {
					mi = (mi + 1) % machines
				}
				evs = append(evs, fleet.Event{
					At: t, Kind: fleet.EvMachineDown, Machine: mi, Drain: r.Intn(5) < 2,
				})
				down[mi] = true
				nDown++
			}
		case 2: // machine-up when one is down
			if nDown > 0 {
				mi := r.Intn(machines)
				for !down[mi] {
					mi = (mi + 1) % machines
				}
				evs = append(evs, fleet.Event{At: t, Kind: fleet.EvMachineUp, Machine: mi})
				down[mi] = false
				nDown--
			}
		case 3:
			evs = append(evs, fleet.Event{
				At: t, Kind: fleet.EvBatchArrival,
				App: apps[r.Intn(len(apps))], Count: 1 + r.Intn(2),
			})
		case 4:
			evs = append(evs, fleet.Event{
				At: t, Kind: fleet.EvBatchCancel,
				App: apps[r.Intn(len(apps))], Count: 1,
			})
		case 5:
			evs = append(evs, fleet.Event{
				At: t, Kind: fleet.EvLoadScale,
				Factor: []float64{0.5, 1.5, 2, 3}[r.Intn(4)],
			})
		}
	}
	for mi := range down {
		if down[mi] {
			step()
			evs = append(evs, fleet.Event{At: t, Kind: fleet.EvMachineUp, Machine: mi})
		}
	}
	return evs
}
