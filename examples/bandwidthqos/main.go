// Bandwidthqos: the paper's conclusion (§8) observes that every
// worst-case slowdown — with or without cache partitioning — came from
// memory-bandwidth contention, and calls for bandwidth/latency QoS
// hardware. This example builds that hardware in simulation: each job
// gets a DRAM bandwidth reservation proportional to its cores, and the
// bandwidth-sensitive victims of Figure 4 are re-measured against the
// stream_uncached hog.
package main

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/workload"
)

func main() {
	const scale = 2e-3
	r := sched.New(sched.Options{Scale: scale})
	qos := machine.Default()
	qos.BandwidthQoS = true

	hog := workload.MustByName("stream_uncached")
	victims := []string{"462.libquantum", "470.lbm", "459.GemsFDTD", "fluidanimate", "batik"}

	fmt.Println("slowdown vs the stream_uncached bandwidth hog:")
	fmt.Printf("%-16s  %-10s  %-10s\n", "victim", "no QoS", "with QoS")
	for _, name := range victims {
		app := workload.MustByName(name)
		alone := sched.AloneHalfSpec(app)
		pair := sched.PairSpec{Fg: app, Bg: hog, Mode: sched.BackgroundLoop}

		// The default platform's runs, then the same two with QoS.
		res := r.RunBatch([]sched.Spec{alone, pair, alone.Mix(qos), pair.Mix(qos)})
		sec := func(i int) float64 { return res[i].JobByName(name).Seconds }
		fmt.Printf("%-16s  %9.2fx  %9.2fx\n", name, sec(1)/sec(0), sec(3)/sec(2))
	}

	fmt.Println("\nCache partitioning cannot remove this interference (the hog's")
	fmt.Println("non-temporal stream never touches the LLC); a bandwidth reservation")
	fmt.Println("can — the hardware addition the paper asks for in its conclusion.")
}
