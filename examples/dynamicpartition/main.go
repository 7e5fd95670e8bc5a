// Dynamicpartition: watch Algorithm 6.1/6.2 at work. 429.mcf alternates
// between low-MPKI phases that need ~1.5 MB of LLC and high-MPKI phases
// that need ~4.5 MB (Figure 12). The controller samples MPKI, grants the
// maximum on each phase change, then shrinks until shrinking hurts. The
// program prints the sampled MPKI/allocation trace — a textual Figure 12.
package main

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/partition"
	"repro/internal/sched"
	"repro/internal/workload"
)

func main() {
	const scale = 2e-3
	r := sched.New(sched.Options{Scale: scale})
	fg := workload.MustByName("429.mcf")
	bg := workload.MustByName("ferret")

	// The registered dynamic policy's decision loop, sampling ~500
	// times over the foreground run (as 100 ms relates to the paper's
	// multi-minute executions).
	var ctl *partition.Loop
	res := r.Run(sched.PairSpec{
		Fg: fg, Bg: bg, Mode: sched.BackgroundLoop,
		Setup: func(m *machine.Machine, fgJob, bgJob *machine.Job) {
			ctl = partition.AttachLoop(m,
				[]partition.LoopJob{{Job: fgJob, Latency: true}, {Job: bgJob}},
				partition.MustNew("dynamic", nil), partition.SamplingInterval(fg, scale))
		},
	})

	fmt.Println("429.mcf under the dynamic controller (bg: ferret)")
	fmt.Printf("%-12s  %-8s  %-5s  %s\n", "sim time (s)", "MPKI", "ways", "allocation")
	samples := ctl.Samples()
	step := len(samples) / 40
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(samples); i += step {
		s := samples[i]
		bar := ""
		for k := 0; k < s.Ways; k++ {
			bar += "#"
		}
		fmt.Printf("%-12.5f  %-8.1f  %-5d  %s\n", s.Seconds, s.MPKI, s.Ways, bar)
	}

	fmt.Printf("\nfg completion: %.4f s; %d reallocations; bg completed %.2f iterations\n",
		res.JobByName(fg.Name).Seconds, ctl.Reallocations(),
		res.JobByName(bg.Name).Iterations)
	fmt.Println("High-MPKI phases hold a large allocation; low-MPKI phases yield")
	fmt.Println("ways to the background — no flush, only the replacement mask moves.")
}
