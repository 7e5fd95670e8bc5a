// Clustering: reproduce the §3.5 methodology on a subset of the
// catalog. Each application is characterized by a 19-feature vector
// (thread scaling, LLC capacity curve, prefetch and bandwidth
// sensitivity), features are normalized to [0,1], and hierarchical
// single-linkage clustering groups look-alike applications — the basis
// of Figure 5 and Table 3.
package main

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/sched"
	"repro/internal/workload"
)

func main() {
	ctx := experiments.NewQuickContext(sched.Options{Scale: 1e-3})
	// A cross-suite slice: the six Table 3 representatives plus a few
	// contrasting applications.
	for _, extra := range []string{"swaptions", "471.omnetpp", "462.libquantum", "h2"} {
		ctx.Apps = append(ctx.Apps, workload.MustByName(extra))
	}

	fmt.Printf("characterizing %d applications (thread scaling, capacity, prefetch, bandwidth)...\n\n",
		len(ctx.Apps))
	res := ctx.Fig5Clustering()
	fmt.Print(res.Table.String())
	fmt.Println("\nsingle-linkage dendrogram:")
	fmt.Print(res.Dendrogram)

	fmt.Println("\nCluster representatives stand in for their members in the")
	fmt.Println("consolidation studies, reducing 45 applications to 6 (§3.5).")
}
