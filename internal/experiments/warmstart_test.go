package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"codesignvm/internal/codecache"
	"codesignvm/internal/experiments/faultfs"
	"codesignvm/internal/machine"
	"codesignvm/internal/vmm"
)

// codecacheParse parses a snapshot stream and reports how many
// sections it holds (test helper for boundary-truncation probing).
func codecacheParse(data []byte) (int, error) {
	snap, err := codecache.ParseSnapshot(data)
	if err != nil {
		return 0, err
	}
	return snap.Sections, nil
}

// TestWarmSnapshotStoreReuse: a snapshot built by one process is
// loaded — not rebuilt — by the next. The second "process" (in-process
// caches cleared) must hit the <key>.ccvm artifact and restore the
// same translations.
func TestWarmSnapshotStoreReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	opt := detOpt().withDefaults()
	opt.FreshRuns = false
	opt.Apps = []string{"Word"}
	opt.Store = t.TempDir()
	tun := testTuning()
	opt.storeTun = &tun
	opt.storeFS = faultfs.Disk{}
	cold := opt.configFor(machine.VMSoft)

	resetSnapCacheForTest()
	resetRunCacheForTest()
	snap1, err := opt.snapshot(cold, "Word", opt.ShortInstrs)
	if err != nil {
		t.Fatal(err)
	}
	if snap1.Len() == 0 {
		t.Fatal("cold producer yielded an empty snapshot")
	}
	key := snapFileKey(cold, "Word", opt.Scale, opt.ShortInstrs)
	if _, err := os.Stat(opt.store().snapPath(key)); err != nil {
		t.Fatalf("snapshot not published to the store: %v", err)
	}

	// Second process: cleared caches, warm store.
	resetSnapCacheForTest()
	resetRunCacheForTest()
	hits := storeHits.Load()
	snap2, err := opt.snapshot(cold, "Word", opt.ShortInstrs)
	if err != nil {
		t.Fatal(err)
	}
	if storeHits.Load() != hits+1 {
		t.Fatal("second process rebuilt the snapshot instead of loading it")
	}
	if snap1.Len() != snap2.Len() || snap1.Size() != snap2.Size() {
		t.Fatalf("reloaded snapshot differs: %d entries/%d bytes, want %d/%d",
			snap2.Len(), snap2.Size(), snap1.Len(), snap1.Size())
	}

	// And the warm run restored from the reloaded snapshot matches the
	// first process's exactly.
	wcfg := cold
	wcfg.WarmStart = vmm.WarmLazy
	snapFn := opt.snapshotFor(cold, "Word", opt.ShortInstrs)
	want, err := opt.runAppWarm(wcfg, "Word", opt.ShortInstrs, snapFn)
	if err != nil {
		t.Fatal(err)
	}
	resetSnapCacheForTest()
	resetRunCacheForTest()
	got, err := opt.runAppWarm(wcfg, "Word", opt.ShortInstrs, snapFn)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("warm run from the reloaded snapshot differs")
	}
}

// TestWarmSnapshotCorruptionDegrades: a corrupted snapshot artifact
// must never reach a simulated VM. The poisoned read quarantines the
// artifact to a .bad sidecar and the run rebuilds the snapshot from a
// cold producer — producing a result byte-identical to a storeless
// warm run, never an error and never a wrong report.
func TestWarmSnapshotCorruptionDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	opt := detOpt().withDefaults()
	opt.FreshRuns = false
	opt.Apps = []string{"Word"}
	cold := opt.configFor(machine.VMSoft)
	wcfg := cold
	wcfg.WarmStart = vmm.WarmLazy

	// Reference: no store at all.
	resetSnapCacheForTest()
	resetRunCacheForTest()
	want, err := opt.runAppWarm(wcfg, "Word", opt.ShortInstrs,
		opt.snapshotFor(cold, "Word", opt.ShortInstrs))
	if err != nil {
		t.Fatal(err)
	}

	// Publish a valid snapshot, then read it through a bit-flipping
	// filesystem.
	dir := t.TempDir()
	tun := testTuning()
	pre := opt
	pre.Store = dir
	pre.storeTun = &tun
	pre.storeFS = faultfs.Disk{}
	resetSnapCacheForTest()
	resetRunCacheForTest()
	if _, err := pre.snapshot(cold, "Word", pre.ShortInstrs); err != nil {
		t.Fatal(err)
	}
	key := snapFileKey(cold, "Word", opt.Scale, opt.ShortInstrs)
	if _, err := os.Stat(pre.store().snapPath(key)); err != nil {
		t.Fatalf("snapshot not published: %v", err)
	}

	fopt := opt
	fopt.Store = dir
	fopt.storeTun = &tun
	fopt.storeFS = faultfs.NewInjector(faultfs.Disk{},
		&faultfs.Fault{Op: faultfs.OpRead, Path: ".ccvm", FlipBit: 200})
	resetSnapCacheForTest()
	resetRunCacheForTest()
	corrupt := storeCorrupt.Load()
	got, err := fopt.runAppWarm(wcfg, "Word", fopt.ShortInstrs,
		fopt.snapshotFor(cold, "Word", fopt.ShortInstrs))
	if err != nil {
		t.Fatalf("snapshot corruption leaked into the sweep: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("warm result under snapshot corruption differs from the storeless run")
	}
	if storeCorrupt.Load() != corrupt+1 {
		t.Error("corrupted snapshot read was not counted")
	}
	if _, err := os.Stat(filepath.Join(dir, key+".bad")); err != nil {
		t.Errorf("corrupted snapshot not quarantined to .bad: %v", err)
	}
}

// TestWarmSnapshotTruncationAtSectionBoundary: a snapshot cut exactly
// at the BBT/SBT section boundary is section-wise valid (the CRC of
// the remaining section holds), so only the two-section shape check
// rejects it. It must load as a miss and be quarantined.
func TestWarmSnapshotTruncationAtSectionBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	opt := detOpt().withDefaults()
	opt.FreshRuns = false
	opt.Apps = []string{"Word"}
	opt.Store = t.TempDir()
	tun := testTuning()
	opt.storeTun = &tun
	opt.storeFS = faultfs.Disk{}
	cold := opt.configFor(machine.VMSoft)

	resetSnapCacheForTest()
	resetRunCacheForTest()
	snap, err := opt.snapshot(cold, "Word", opt.ShortInstrs)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Sections != 2 {
		t.Fatalf("want 2 sections, got %d", snap.Sections)
	}
	s := opt.store()
	key := snapFileKey(cold, "Word", opt.Scale, opt.ShortInstrs)
	data, err := os.ReadFile(s.snapPath(key))
	if err != nil {
		t.Fatal(err)
	}
	// Find the first section's length by re-parsing a prefix: the BBT
	// section ends where a one-section parse of the whole file says the
	// first section does. Walk prefixes until exactly one section parses.
	cut := -1
	for n := 1; n < len(data); n++ {
		if p, err := codecacheParse(data[:n]); err == nil && p == 1 {
			cut = n
			break
		}
	}
	if cut < 0 {
		t.Fatal("could not locate the section boundary")
	}
	if err := os.WriteFile(s.snapPath(key), data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	if got := s.loadSnapshot(key); got != nil {
		t.Fatal("section-boundary truncation served a snapshot")
	}
	if _, err := os.Stat(filepath.Join(s.dir, key+".bad")); err != nil {
		t.Errorf("truncated snapshot not quarantined: %v", err)
	}
}
