package sched

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/workload"
)

func storeSpec() Spec {
	return SingleSpec{App: workload.MustByName("429.mcf"), Threads: 2, Ways: 4}
}

// A fresh runner pointed at a warm cache directory must serve the run
// from disk — zero simulations — and return a result deeply equal to
// the simulated one (the CLI's cross-process replay guarantee).
func TestDiskStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()

	r1 := New(Options{Scale: QuickScale, CacheDir: dir})
	want := r1.Run(storeSpec())
	if st := r1.Stats(); st.Simulations != 1 || st.DiskHits != 0 {
		t.Fatalf("cold run: %d sims, %d disk hits; want 1, 0", st.Simulations, st.DiskHits)
	}

	r2 := New(Options{Scale: QuickScale, CacheDir: dir})
	got := r2.Run(storeSpec())
	if st := r2.Stats(); st.Simulations != 0 || st.DiskHits != 1 {
		t.Fatalf("warm run: %d sims, %d disk hits; want 0, 1", st.Simulations, st.DiskHits)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("disk result differs from simulated result:\ngot  %+v\nwant %+v", got, want)
	}

	// Within one process the in-memory layer answers first: a repeat on
	// r2 is a memo hit, not a second disk read.
	r2.Run(storeSpec())
	if st := r2.Stats(); st.MemoHits != 1 || st.DiskHits != 1 {
		t.Fatalf("repeat: %d memo hits, %d disk hits; want 1, 1", st.MemoHits, st.DiskHits)
	}
}

// A cache directory that becomes unwritable mid-session must cost the
// cache, not the run: results stay correct, the runner warns exactly
// once on WarnLog, and no records land. (The directory is replaced
// with a plain file rather than chmod'd — tests may run as root, where
// permission bits do not bind.)
func TestDiskStoreWriteFailureWarnsAndContinues(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	var warn bytes.Buffer
	r := New(Options{Scale: QuickScale, CacheDir: dir, WarnLog: &warn})

	// Sabotage every subsequent record write: the store's directory is
	// now a plain file, so CreateTemp inside it fails.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	want := New(Options{Scale: QuickScale}).Run(storeSpec())
	got := r.Run(storeSpec())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("run with a failing store differs from a plain run:\ngot  %+v\nwant %+v", got, want)
	}
	if st := r.Stats(); st.Simulations != 1 {
		t.Fatalf("failing store: %d simulations, want 1", st.Simulations)
	}
	first := warn.String()
	if !strings.Contains(first, "result store write failed") {
		t.Fatalf("missing store-write warning, got %q", first)
	}
	if n := strings.Count(first, "\n"); n != 1 {
		t.Fatalf("warning is %d lines, want exactly 1: %q", n, first)
	}

	// A second failing write stays quiet: the warning is once per runner.
	r.Run(SingleSpec{App: workload.MustByName("ferret"), Threads: 2, Ways: 4})
	if warn.String() != first {
		t.Fatalf("second failure warned again:\n%q", warn.String())
	}
}

// Records from a different engine version must be ignored: the run
// re-simulates and overwrites rather than serving stale results.
func TestDiskStoreVersionGate(t *testing.T) {
	dir := t.TempDir()
	r1 := New(Options{Scale: QuickScale, CacheDir: dir})
	r1.Run(storeSpec())

	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(files) != 1 {
		t.Fatalf("want exactly one record, got %v (err %v)", files, err)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatal(err)
	}
	rec["version"] = "some-older-engine"
	tampered, _ := json.Marshal(rec)
	if err := os.WriteFile(files[0], tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := New(Options{Scale: QuickScale, CacheDir: dir})
	r2.Run(storeSpec())
	if st := r2.Stats(); st.Simulations != 1 || st.DiskHits != 0 {
		t.Fatalf("stale-version record served: %d sims, %d disk hits; want 1, 0", st.Simulations, st.DiskHits)
	}
}

// A corrupt record (torn write, foreign file) must be survivable.
func TestDiskStoreCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	r1 := New(Options{Scale: QuickScale, CacheDir: dir})
	r1.Run(storeSpec())

	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 1 {
		t.Fatalf("want one record, got %v", files)
	}
	if err := os.WriteFile(files[0], []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := New(Options{Scale: QuickScale, CacheDir: dir})
	r2.Run(storeSpec())
	if st := r2.Stats(); st.Simulations != 1 || st.DiskHits != 0 {
		t.Fatalf("corrupt record not re-simulated: %+v", st)
	}
}

// DisableCache must bypass the disk layer entirely (no reads, no
// writes), like it bypasses the in-memory layer.
func TestDiskStoreDisabled(t *testing.T) {
	dir := t.TempDir()
	r := New(Options{Scale: QuickScale, CacheDir: dir, DisableCache: true})
	r.Run(storeSpec())
	files, _ := filepath.Glob(filepath.Join(dir, "*"))
	if len(files) != 0 {
		t.Fatalf("DisableCache wrote records: %v", files)
	}
}

// Scale participates in the memo key, so two scales must produce two
// distinct records in one directory.
func TestDiskStoreKeyedByScale(t *testing.T) {
	dir := t.TempDir()
	New(Options{Scale: QuickScale, CacheDir: dir}).Run(storeSpec())
	New(Options{Scale: 2 * QuickScale, CacheDir: dir}).Run(storeSpec())
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 2 {
		t.Fatalf("want 2 records for 2 scales, got %d", len(files))
	}
}

// A batch against a warm directory must be all disk hits regardless of
// parallelism, and return results identical to the cold batch.
func TestDiskStoreBatchParallel(t *testing.T) {
	dir := t.TempDir()
	app := workload.MustByName("429.mcf")
	bg := workload.MustByName("ferret")
	var specs []Spec
	for w := 2; w <= 10; w += 2 {
		specs = append(specs, PairSpec{Fg: app, Bg: bg, FgWays: w, BgWays: 12 - w})
	}
	cold := New(Options{Scale: QuickScale, CacheDir: dir, Parallelism: 4}).RunBatch(specs)
	warmRunner := New(Options{Scale: QuickScale, CacheDir: dir, Parallelism: 4})
	warm := warmRunner.RunBatch(specs)
	if st := warmRunner.Stats(); st.Simulations != 0 || st.DiskHits != uint64(len(specs)) {
		t.Fatalf("warm batch: %d sims, %d disk hits; want 0, %d", st.Simulations, st.DiskHits, len(specs))
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("warm batch results differ from cold batch")
	}
}

// A spec names its platform, so one store serves several platforms
// without aliasing: 429.mcf's alone-half run on the default platform
// and on the 2 MB/8-way LLC are two simulations and two records, and a
// second runner on the directory replays both.
func TestDiskStoreKeyedByPlatform(t *testing.T) {
	dir := t.TempDir()
	def := AloneHalfSpec(workload.MustByName("429.mcf"))
	specs := []Spec{def, def.Mix(smallLLC)}

	r1 := New(Options{Scale: QuickScale, CacheDir: dir})
	cold := []*machine.Result{r1.Run(specs[0]), r1.Run(specs[1])}
	if st := r1.Stats(); st.Simulations != 2 || st.MemoHits != 0 || st.DiskHits != 0 {
		t.Fatalf("cold: %d sims, %d memo hits, %d disk hits; want the variant simulated too (2, 0, 0)",
			st.Simulations, st.MemoHits, st.DiskHits)
	}
	if a, b := cold[0].Jobs[0].Seconds, cold[1].Jobs[0].Seconds; a == b {
		t.Fatalf("both platforms ran in %g s", a)
	}

	r2 := New(Options{Scale: QuickScale, CacheDir: dir})
	warm := r2.RunBatch(specs)
	if st := r2.Stats(); st.Simulations != 0 || st.DiskHits != 2 {
		t.Fatalf("warm: %d sims, %d disk hits; want 0, 2", st.Simulations, st.DiskHits)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("replayed results differ from the simulated ones")
	}
}
