// Package core is the library's high-level API: a Session owns one
// memoized engine over the simulated way-partitionable platform, built
// from the one options type every front end decodes into (RunConfig),
// and runs declarative scenarios and fleets into versioned report
// envelopes.
//
// The paper's central question — can a latency-sensitive foreground
// application share a machine with background work without losing
// responsiveness? — maps onto a session's engine plus a partition
// plan, which prices any registered policy on a job mix:
//
//	sess, _ := core.NewSession(core.RunConfig{})
//	r := sess.Runner()
//	fg, bg := workload.MustByName("429.mcf"), workload.MustByName("ferret")
//	plan, _ := partition.PairPlan(partition.MustNew("dynamic", nil),
//		machine.Default(), r.Scale(), fg, bg)
//	alone := r.Run(sched.AloneHalfSpec(fg)).Jobs[0].Seconds
//	out := plan.Harvest(r.RunBatch(plan.Specs()), alone)
//	fmt.Println(out.Main.Jobs[0].Seconds, out.Reallocations)
//
// Everything deeper (cache geometry, prefetchers, energy coefficients,
// experiment drivers for each paper figure) lives in the sibling
// internal packages.
package core

import "repro/internal/workload"

// Workloads lists the 45 applications of the catalog in suite order.
func Workloads() []string { return workload.Names() }

// Representatives lists the six Table 3 cluster representatives.
func Representatives() []string { return workload.RepresentativeNames() }
