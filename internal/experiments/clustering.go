package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/machine"
	"repro/internal/sched"
	"repro/internal/workload"
)

// featureSpecs lists every run one application's feature vector needs,
// in the order featureVector reads them: 1-8 threads, the 4-thread way
// sweep from 2 to 12 ways, then Figure 3's and Figure 4's runs.
func (c *Context) featureSpecs(app *workload.Profile) []sched.Spec {
	specs := []sched.Spec{sched.SingleSpec{App: app, Threads: 1}}
	for th := 2; th <= 8; th++ {
		specs = append(specs, sched.SingleSpec{App: app, Threads: th})
	}
	threads := threadsFor(app, 4)
	for w := 2; w <= 12; w++ {
		specs = append(specs, sched.SingleSpec{App: app, Threads: threads, Ways: w})
	}
	specs = append(specs, prefetchSpecs(app)...)
	return append(specs, bandwidthSpecs(app)...)
}

// featureVector reads the 19-feature characterization vector of §3.5
// for one application from the results of its featureSpecs: execution
// time versus thread count (7 features, 2-8 threads, over 1 thread),
// execution time versus LLC allocation (10 features, 2-11 ways, over 12
// ways), prefetcher sensitivity (1), and bandwidth sensitivity (1).
// Values are raw here; NormalizeFeatures rescales per dimension.
func featureVector(app *workload.Profile, res []*machine.Result) []float64 {
	sec := func(r *machine.Result) float64 { return r.JobByName(app.Name).Seconds }
	threads, ways := res[:8], res[8:19]
	var vec []float64
	for _, r := range threads[1:] {
		vec = append(vec, sec(r)/sec(threads[0]))
	}
	for _, r := range ways[:10] {
		vec = append(vec, sec(r)/sec(ways[10]))
	}
	return append(vec, prefetchRatio(app, res[19:21]), bandwidthSlowdown(app, res[21:]))
}

// Fig5Result carries the clustering outcome.
type Fig5Result struct {
	Table      *Table
	Dendrogram string
	Groups     [][]string // cluster memberships by app name
	Reps       []string   // centroid-closest representative per cluster
}

// Fig5Clustering reproduces Figure 5 and Table 3: hierarchical
// single-linkage clustering of the 19-feature vectors, cut at 0.9, with
// centroid-closest representatives.
func (c *Context) Fig5Clustering() *Fig5Result {
	sweeps := make([][]sched.Spec, len(c.Apps))
	for i, app := range c.Apps {
		sweeps[i] = c.featureSpecs(app)
	}
	items := make([]cluster.Item, len(c.Apps))
	for i, res := range c.runSweeps(sweeps) {
		items[i] = cluster.Item{Name: c.Apps[i].Name, Vec: featureVector(c.Apps[i], res)}
	}
	cluster.NormalizeFeatures(items)
	merges := cluster.SingleLinkage(items)
	groups := cluster.CutAtDistance(merges, len(items), 0.9)

	res := &Fig5Result{Dendrogram: cluster.Dendrogram(items, merges)}
	t := &Table{Title: "Figure 5 / Table 3: single-linkage clusters (cut at 0.9)",
		Columns: []string{"cluster", "representative", "members"}}
	for gi, g := range groups {
		rep := items[cluster.Representative(items, g)].Name
		var names []string
		for _, idx := range g {
			names = append(names, items[idx].Name)
		}
		res.Groups = append(res.Groups, names)
		res.Reps = append(res.Reps, rep)
		t.Add(fmt.Sprintf("C%d", gi+1), rep, join(names, " "))
	}
	t.Note("paper cut at 0.9 yields 6 multi-member clusters (plus fluidanimate alone); representatives: 429.mcf, 459.GemsFDTD, ferret, fop, dedup, batik")
	res.Table = t
	return res
}

func join(xs []string, sep string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += sep
		}
		out += x
	}
	return out
}
