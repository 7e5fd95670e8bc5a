// Consolidation: the paper's central scenario. A latency-sensitive
// foreground application (429.mcf, cluster C1) shares the machine with
// a continuously-running background job (ferret, cluster C3) under each
// LLC management policy. The output reproduces the §5 story: sharing is
// efficient but risky, fair partitioning wastes capacity, biased
// partitioning protects the foreground, and the dynamic controller gets
// the best of both.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/workload"
)

func main() {
	sess, err := core.NewSession(core.RunConfig{})
	if err != nil {
		log.Fatal(err)
	}
	r := sess.Runner()

	fg, bg := workload.MustByName("429.mcf"), workload.MustByName("ferret")
	alone := r.Run(sched.AloneHalfSpec(fg)).Jobs[0].Seconds
	fmt.Printf("foreground %s alone (2 cores / 4 HTs): %.4f s\n\n", fg.Name, alone)

	fmt.Printf("co-scheduling %s (cores 0-1) with %s (cores 2-3):\n\n", fg.Name, bg.Name)
	fmt.Printf("%-8s  %-11s  %-12s  %-14s  %-10s\n",
		"policy", "LLC split", "fg slowdown", "bg iterations", "socket (J)")
	for _, name := range scenario.PartitionPolicies() {
		// Each policy's partition plan lists the runs it needs (the
		// biased sweep, the online episode, or the static split) and
		// harvests the outcome from their results.
		plan, err := partition.PairPlan(partition.MustNew(name, nil), r.MachineConfig(), r.Scale(), fg, bg)
		if err != nil {
			log.Fatal(err)
		}
		out := plan.Harvest(r.RunBatch(plan.Specs()), alone)
		split := "12 shared"
		if out.Ways(0) > 0 {
			split = fmt.Sprintf("%d / %d", out.Ways(0), out.Ways(1))
		}
		res := out.Main
		fmt.Printf("%-8s  %-11s  %+10.1f%%  %14.2f  %10.2f\n",
			name, split, (res.Jobs[0].Seconds/alone-1)*100, res.Jobs[1].Iterations, res.Energy.SocketJoules)
	}

	fmt.Println("\nThe biased split minimizes foreground degradation; the dynamic")
	fmt.Println("controller tracks mcf's phase changes and hands the reclaimed ways")
	fmt.Println("to the background (§6).")
}
