package sched

import (
	"fmt"
	"testing"

	"repro/internal/machine"
	"repro/internal/workload"
)

// multiPeerMix is the §6.3 multi-peer shape — a foreground with several
// background copies, run as one mix — the TestRunMulti* cases drive:
// the foreground on cores 0-1, each background peer looping on one
// core from core 2 up, optionally split fgWays low / bgWays high with
// the peers sharing the background partition.
func multiPeerMix(fg *workload.Profile, bgs []*workload.Profile, fgWays, bgWays int) MixSpec {
	cfg := machine.Default()
	assoc := cfg.Hier.LLC.Assoc
	var bgFirst, bgLim int
	if bgWays > 0 {
		bgFirst, bgLim = assoc-bgWays, assoc
	}
	jobs := []MixJob{{App: fg, Threads: CapThreads(fg, 4),
		Slots: cfg.SlotsForCores(0, 1), Seed: "fg", WayLim: fgWays}}
	for i, bg := range bgs {
		jobs = append(jobs, MixJob{
			App: bg, Threads: CapThreads(bg, 2),
			Slots: cfg.SlotsForCores(2 + i), Background: true,
			Seed: fmt.Sprintf("bg%d", i), WayFirst: bgFirst, WayLim: bgLim,
		})
	}
	return MixSpec{Jobs: jobs}
}

func TestRunMultiTwoCopies(t *testing.T) {
	r := New(Options{Scale: 5e-4})
	fg := workload.MustByName("fop")
	bg := workload.MustByName("ferret")
	res := r.RunMix(multiPeerMix(fg, []*workload.Profile{bg, bg}, 0, 0))
	if len(res.Jobs) != 3 {
		t.Fatalf("%d jobs, want 3", len(res.Jobs))
	}
	bgCount := 0
	for _, j := range res.Jobs {
		if j.Background {
			bgCount++
			if j.Iterations <= 0 {
				t.Fatal("background copy made no progress")
			}
		}
	}
	if bgCount != 2 {
		t.Fatalf("%d background jobs", bgCount)
	}
}

func TestRunMultiMoreCopiesMoreContention(t *testing.T) {
	r := New(Options{Scale: 2e-3})
	fg := workload.MustByName("429.mcf")
	bg := workload.MustByName("canneal")
	one := r.RunMix(multiPeerMix(fg, []*workload.Profile{bg}, 0, 0)).
		JobByName(fg.Name).Seconds
	two := r.RunMix(multiPeerMix(fg, []*workload.Profile{bg, bg}, 0, 0)).
		JobByName(fg.Name).Seconds
	if two < one*0.98 {
		t.Fatalf("second background copy reduced interference: 1=%v 2=%v", one, two)
	}
}

func TestRunMultiPartition(t *testing.T) {
	r := New(Options{Scale: 5e-4})
	fg := workload.MustByName("fop")
	bg := workload.MustByName("ferret")
	res := r.RunMix(multiPeerMix(fg, []*workload.Profile{bg, bg}, 8, 4))
	if res.JobByName(fg.Name).Seconds <= 0 {
		t.Fatal("degenerate run")
	}
}

// TestRunMultiValidation: a mix with no jobs, or with a peer placed
// past the platform's last core, is an engine-construction bug and
// panics rather than running a different shape.
func TestRunMultiValidation(t *testing.T) {
	r := New(Options{Scale: 5e-4})
	fg := workload.MustByName("fop")
	bg := workload.MustByName("ferret")
	overfull := multiPeerMix(fg, []*workload.Profile{bg}, 0, 0)
	overfull.Jobs = append(overfull.Jobs, MixJob{App: bg, Threads: 2,
		Slots: []int{8, 9}, Background: true, Seed: "bg9"})
	for name, mix := range map[string]MixSpec{"empty": {}, "off-machine peer": overfull} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s mix accepted", name)
				}
			}()
			r.RunMix(mix)
		}()
	}
}

func TestRunMultiMemoized(t *testing.T) {
	r := New(Options{Scale: 5e-4})
	fg := workload.MustByName("fop")
	bg := workload.MustByName("ferret")
	a := r.RunMix(multiPeerMix(fg, []*workload.Profile{bg}, 0, 0))
	b := r.RunMix(multiPeerMix(fg, []*workload.Profile{bg}, 0, 0))
	if a != b {
		t.Fatal("multi-peer runs not memoized")
	}
}
