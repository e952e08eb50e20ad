package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"codesignvm/internal/experiments/faultfs"
	"codesignvm/internal/machine"
)

// faultStore builds a runStore over a temp dir whose filesystem is an
// injector with the given fault table.
func faultStore(t *testing.T, faults ...*faultfs.Fault) (*runStore, *faultfs.Injector) {
	t.Helper()
	in := faultfs.NewInjector(faultfs.Disk{}, faults...)
	return &runStore{
		dir: t.TempDir(),
		fs:  in,
		tun: testTuning(),
		ctx: context.Background(),
	}, in
}

// TestRunStoreCorruptionEveryTruncation: a golden record truncated at
// EVERY byte offset must read as a miss (nil, nil) and be quarantined —
// no offset may decode, panic or return a wrong result.
func TestRunStoreCorruptionEveryTruncation(t *testing.T) {
	s := testStore(t)
	key := "truncate"
	golden := encodeResult(sampleResult())

	for n := 0; n < len(golden); n++ {
		if err := os.WriteFile(s.runPath(key), golden[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := s.load(key)
		if res != nil || err != nil {
			t.Fatalf("truncation at %d/%d bytes: want (nil, nil), got (%v, %v)", n, len(golden), res, err)
		}
		if _, err := os.Stat(s.runPath(key)); !os.IsNotExist(err) {
			t.Fatalf("truncation at %d bytes: corrupt record not quarantined", n)
		}
		// Quarantine leaves a .bad sidecar; clear it so the next
		// iteration's rename target is free.
		os.Remove(filepath.Join(s.dir, key+".bad"))
	}

	// The untruncated record still decodes (the loop did not damage the
	// decoder's state or the store).
	if err := os.WriteFile(s.runPath(key), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	if res, err := s.load(key); res == nil || err != nil {
		t.Fatalf("golden record after sweep: want result, got (%v, %v)", res, err)
	}
}

// TestRunStoreCorruptionEveryBitFlipStride: single-bit flips across the
// record (every 7th bit, covering every byte position over successive
// primes' worth of offsets) must all be rejected by the CRC trailer.
func TestRunStoreCorruptionEveryBitFlipStride(t *testing.T) {
	s := testStore(t)
	key := "bitflip1"
	golden := encodeResult(sampleResult())

	bits := int64(len(golden)) * 8
	for bit := int64(0); bit < bits; bit += 7 {
		rec := append([]byte(nil), golden...)
		rec[bit/8] ^= 1 << (bit % 8)
		if err := os.WriteFile(s.runPath(key), rec, 0o644); err != nil {
			t.Fatal(err)
		}
		if res, err := s.load(key); res != nil || err != nil {
			t.Fatalf("bit flip at %d: want (nil, nil), got (%v, %v)", bit, res, err)
		}
		os.Remove(filepath.Join(s.dir, key+".bad"))
	}
}

// TestRunStoreBitFlipViaInjector: the same property end-to-end through
// the faultfs read path — a valid on-disk record whose *read* is
// corrupted must quarantine and miss, and the next (clean) read of the
// re-saved record must hit.
func TestRunStoreBitFlipViaInjector(t *testing.T) {
	s, _ := faultStore(t, &faultfs.Fault{Op: faultfs.OpRead, Path: ".run", FlipBit: 130})
	key := "f11pread"
	if err := s.save(key, sampleResult()); err != nil {
		t.Fatal(err)
	}
	before := storeCorrupt.Load()
	if res, err := s.load(key); res != nil || err != nil {
		t.Fatalf("flipped read: want (nil, nil), got (%v, %v)", res, err)
	}
	if storeCorrupt.Load() != before+1 {
		t.Fatal("flipped read did not count as corrupt")
	}
	// The record was quarantined (the on-disk bytes are fine, but the
	// store cannot tell a bad read from a bad record: either way the
	// entry must stop serving). A re-save hits cleanly.
	if err := s.save(key, sampleResult()); err != nil {
		t.Fatal(err)
	}
	if res, err := s.load(key); res == nil || err != nil {
		t.Fatalf("clean re-read: want result, got (%v, %v)", res, err)
	}
}

// TestRunStoreSaveENOSPC: a full disk mid-write fails the save, leaves
// no partial .run record, and removes its temp file.
func TestRunStoreSaveENOSPC(t *testing.T) {
	s, _ := faultStore(t, &faultfs.Fault{
		Op: faultfs.OpWrite, Path: ".tmp", AfterBytes: 64, Err: syscall.ENOSPC,
	})
	key := "n05pace"
	if err := s.save(key, sampleResult()); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC from save, got %v", err)
	}
	if _, err := os.Stat(s.runPath(key)); !os.IsNotExist(err) {
		t.Fatal("a failed save left a .run record")
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("failed save left temp file %s", e.Name())
		}
	}
}

// TestRunStoreReadOnlyStore: EROFS on every create degrades cleanly —
// saves fail without panicking, and acquire falls back to simulating
// (won=true) because locking is impossible.
func TestRunStoreReadOnlyStore(t *testing.T) {
	s, _ := faultStore(t,
		&faultfs.Fault{Op: faultfs.OpCreate, Err: syscall.EROFS},
		&faultfs.Fault{Op: faultfs.OpCreate, N: 1, Err: syscall.EROFS}, // second create too
	)
	key := "r0f5"
	if err := s.save(key, sampleResult()); !errors.Is(err, syscall.EROFS) {
		t.Fatalf("want EROFS from save, got %v", err)
	}
	release, won, err := s.acquire(key, s.runPath(key))
	if err != nil || !won {
		t.Fatalf("read-only store must degrade to simulating, got (won=%v err=%v)", won, err)
	}
	release() // no-op; must not panic
	if _, serr := os.Stat(s.lockPath(key)); !os.IsNotExist(serr) {
		t.Fatal("degraded acquire created a lock file on a read-only store")
	}
}

// TestRunStoreKillAtTokenWriteLeavesNoLock: a contender killed while
// writing its lock token leaves no lock file, since a lock without its
// token matches no pid and survivors would wait out lockStale. A live
// process then takes the lock at once.
func TestRunStoreKillAtTokenWriteLeavesNoLock(t *testing.T) {
	s, in := faultStore(t, &faultfs.Fault{Op: faultfs.OpWrite, Path: ".lock", Kill: true})
	key := "k1ll"
	release, won, err := s.acquire(key, s.runPath(key))
	if err != nil || !won {
		t.Fatalf("a dead store must degrade to simulating, got (won=%v err=%v)", won, err)
	}
	release()
	if !in.Dead() {
		t.Fatal("the token write was never reached")
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".lock") {
			t.Fatalf("kill at the token write left lock %s", e.Name())
		}
	}
	live := &runStore{dir: s.dir, fs: faultfs.Disk{}, tun: s.tun, ctx: context.Background()}
	rel, ok, fatal := live.tryLock(live.lockPath(key))
	if !ok || fatal {
		t.Fatalf("a live process could not take the lock (ok=%v fatal=%v)", ok, fatal)
	}
	rel()
}

// TestRunStoreMkdirFailure: an uncreatable store directory degrades the
// same way — save errors, acquire simulates unprotected.
func TestRunStoreMkdirFailure(t *testing.T) {
	s, _ := faultStore(t,
		&faultfs.Fault{Op: faultfs.OpMkdir, Err: syscall.EROFS},
		&faultfs.Fault{Op: faultfs.OpMkdir, N: 1, Err: syscall.EROFS},
	)
	if err := s.save("mkd1r", sampleResult()); !errors.Is(err, syscall.EROFS) {
		t.Fatalf("want EROFS from save, got %v", err)
	}
	release, won, err := s.acquire("mkd1r", s.runPath("mkd1r"))
	if err != nil || !won {
		t.Fatalf("unwritable dir must degrade to simulating, got (won=%v err=%v)", won, err)
	}
	release()
}

// TestRunStoreKillMidWrite: a writer killed mid-save leaves an orphaned
// temp file (it could not clean up) but never a readable partial
// record; GC later collects the orphan once it ages past gcTmpAge.
func TestRunStoreKillMidWrite(t *testing.T) {
	s, in := faultStore(t, &faultfs.Fault{
		Op: faultfs.OpWrite, Path: ".tmp", AfterBytes: 100, Kill: true,
	})
	key := "k9mid"
	if err := s.save(key, sampleResult()); !errors.Is(err, faultfs.ErrKilled) {
		t.Fatalf("want ErrKilled from save, got %v", err)
	}
	if !in.Dead() {
		t.Fatal("injector should be dead after the kill")
	}
	if _, err := os.Stat(s.runPath(key)); !os.IsNotExist(err) {
		t.Fatal("killed writer published a record")
	}
	var orphan string
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp") {
			orphan = filepath.Join(s.dir, e.Name())
		}
	}
	if orphan == "" {
		t.Fatal("killed writer left no orphan temp file (fault did not take the write path)")
	}

	// A later, healthy process never reads the orphan (it was never
	// renamed into place)…
	s2 := &runStore{dir: s.dir, fs: faultfs.Disk{}, tun: testTuning(), ctx: context.Background()}
	if res, err := s2.load(key); res != nil || err != nil {
		t.Fatalf("partial temp file served a result: (%v, %v)", res, err)
	}
	// …and its GC collects the debris once it is old enough.
	old := time.Now().Add(-2 * s2.tun.gcTmpAge)
	if err := os.Chtimes(orphan, old, old); err != nil {
		t.Fatal(err)
	}
	s2.gc()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatal("GC left the aged orphan temp file")
	}
}

// TestRunStoreFaultsDegradeToSimulation: end-to-end through
// simulateOrLoad — under every injected store fault the sweep must
// still produce results byte-identical to a storeless run. Persistence
// is an accelerator, never a correctness dependency.
func TestRunStoreFaultsDegradeToSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation")
	}
	opt := detOpt().withDefaults()
	opt.FreshRuns = false
	cfg := opt.configFor(machine.VMSoft)

	// Reference: no store at all.
	resetRunCacheForTest()
	want, err := opt.runApp(cfg, "Word", opt.ShortInstrs)
	if err != nil {
		t.Fatal(err)
	}

	tun := testTuning()
	cases := []struct {
		name   string
		faults []*faultfs.Fault
	}{
		{"enospc-on-save", []*faultfs.Fault{
			{Op: faultfs.OpWrite, Path: ".tmp", AfterBytes: 32, Err: syscall.ENOSPC}}},
		{"readonly-store", []*faultfs.Fault{
			{Op: faultfs.OpMkdir, Err: syscall.EROFS},
			{Op: faultfs.OpMkdir, Err: syscall.EROFS},
			{Op: faultfs.OpCreate, Err: syscall.EROFS},
			{Op: faultfs.OpCreate, Err: syscall.EROFS}}},
		{"kill-mid-write", []*faultfs.Fault{
			{Op: faultfs.OpWrite, Path: ".tmp", AfterBytes: 100, Kill: true}}},
		{"corrupt-read", []*faultfs.Fault{
			{Op: faultfs.OpRead, Path: ".run", FlipBit: 200}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resetRunCacheForTest()
			fopt := opt
			fopt.Store = t.TempDir()
			fopt.storeFS = faultfs.NewInjector(faultfs.Disk{}, tc.faults...)
			fopt.storeTun = &tun
			if tc.name == "corrupt-read" {
				// Pre-populate a valid record so the faulted read has
				// something to corrupt.
				pre := fopt
				pre.storeFS = faultfs.Disk{}
				if err := pre.store().save(runFileKey(cfg, "Word", fopt.Scale, fopt.ShortInstrs, ""), want); err != nil {
					t.Fatal(err)
				}
			}
			got, err := fopt.runApp(cfg, "Word", fopt.ShortInstrs)
			if err != nil {
				t.Fatalf("store fault leaked into the sweep: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("result under store faults differs from the storeless simulation")
			}
		})
	}
}

// TestRunStoreGCSweep: the once-per-process sweep removes aged debris
// (orphan temps, steal markers), steals stale locks, and — with a size
// cap — evicts least-recently-used records until the store fits,
// keeping the freshest.
func TestRunStoreGCSweep(t *testing.T) {
	s := testStore(t)
	rec := encodeResult(sampleResult())
	old := time.Now().Add(-10 * s.tun.gcTmpAge)
	older := time.Now().Add(-20 * s.tun.gcTmpAge)

	mk := func(name string, mtime time.Time, data []byte) string {
		t.Helper()
		path := filepath.Join(s.dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
		return path
	}

	oldTmp := mk("aaa.tmp123", old, []byte("partial"))
	freshTmp := mk("bbb.tmp456", time.Now(), []byte("in flight"))
	oldMarker := mk("ccc.lock.steal.42", old, nil)
	staleLock := mk("ddd.lock", old, []byte("corpse\n"))
	lruRun := mk("evict1.run", older, rec)
	midRun := mk("evict2.run", old, rec)
	hotRun := mk("keep.run", time.Now(), rec)

	// Cap so only one record fits.
	s.tun.maxBytes = int64(len(rec)) + 16
	evBefore := storeGCEvictions.Load()
	s.gc()

	for _, gone := range []string{oldTmp, oldMarker, staleLock, lruRun, midRun} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Errorf("GC left %s behind", filepath.Base(gone))
		}
	}
	for _, kept := range []string{freshTmp, hotRun} {
		if _, err := os.Stat(kept); err != nil {
			t.Errorf("GC removed %s (should keep): %v", filepath.Base(kept), err)
		}
	}
	if got := storeGCEvictions.Load() - evBefore; got != 2 {
		t.Errorf("want 2 evictions counted, got %d", got)
	}
}

// TestRunStoreGCPairedEviction: the size cap evicts whole key groups —
// a run record leaves together with its sibling snapshot and unit
// marker, so GC can never orphan a .ccvm whose .run is gone (or vice
// versa). One hot member protects the whole group.
func TestRunStoreGCPairedEviction(t *testing.T) {
	s := testStore(t)
	rec := encodeResult(sampleResult())
	older := time.Now().Add(-20 * s.tun.gcTmpAge)

	mk := func(name string, mtime time.Time, data []byte) string {
		t.Helper()
		path := filepath.Join(s.dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, mtime, mtime); err != nil {
			t.Fatal(err)
		}
		return path
	}

	// Cold group: record + snapshot + unit marker, all stale.
	coldRun := mk("cold.run", older, rec)
	coldSnap := mk("cold.ccvm", older, []byte("snapshot payload")) // sibling artifact
	coldUnit := mk("cold.unit", older, []byte("unit fig2/Word\n"))
	// Hot group: stale record whose snapshot was touched just now — the
	// fresh member must keep its stale sibling alive (group atime is the
	// newest member's).
	hotRun := mk("hot.run", older, rec)
	hotSnap := mk("hot.ccvm", time.Now(), []byte("snapshot payload"))

	// Cap fits the hot group only.
	s.tun.maxBytes = int64(len(rec) + 32)
	s.gc()

	for _, gone := range []string{coldRun, coldSnap, coldUnit} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Errorf("GC left %s: the cold group must be evicted whole", filepath.Base(gone))
		}
	}
	for _, kept := range []string{hotRun, hotSnap} {
		if _, err := os.Stat(kept); err != nil {
			t.Errorf("GC evicted %s: one fresh member must keep its group: %v", filepath.Base(kept), err)
		}
	}
}

// TestRunStoreGCSkipsLockedKeys: a key whose lock is live (heartbeat
// mtime inside the staleness window) is never evicted, no matter the
// size pressure; once the lock goes stale, the same sweep steals it
// and the group becomes evictable.
func TestRunStoreGCSkipsLockedKeys(t *testing.T) {
	s := testStore(t)
	rec := encodeResult(sampleResult())
	older := time.Now().Add(-20 * s.tun.gcTmpAge)

	run := filepath.Join(s.dir, "busy.run")
	snap := filepath.Join(s.dir, "busy.ccvm")
	lock := filepath.Join(s.dir, "busy.lock")
	for _, f := range []struct {
		path string
		data []byte
	}{{run, rec}, {snap, []byte("snapshot payload")}} {
		if err := os.WriteFile(f.path, f.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(f.path, older, older); err != nil {
			t.Fatal(err)
		}
	}
	// Live lock: an in-flight writer/reader owns this key right now.
	if err := os.WriteFile(lock, []byte("pid 1 seq 1 t 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s.tun.maxBytes = 1 // everything is over budget
	s.gc()
	for _, kept := range []string{run, snap} {
		if _, err := os.Stat(kept); err != nil {
			t.Fatalf("GC evicted %s out from under a live lock: %v", filepath.Base(kept), err)
		}
	}

	// The owner dies: its heartbeat stops and the lock ages out. Now
	// the sweep reclaims everything — lock and group.
	stale := time.Now().Add(-2 * s.tun.lockStale)
	if err := os.Chtimes(lock, stale, stale); err != nil {
		t.Fatal(err)
	}
	s.gc()
	for _, gone := range []string{run, snap, lock} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Errorf("GC left %s after the lock went stale", filepath.Base(gone))
		}
	}
}

// TestRunStoreGCGateAliases: the once-per-process GC gate keys on the
// canonical absolute path, so differently spelled paths of one
// directory share a single sweep instead of racing two.
func TestRunStoreGCGateAliases(t *testing.T) {
	dir := t.TempDir()
	seed := func() string {
		t.Helper()
		debris := filepath.Join(dir, "zzz.tmp1")
		if err := os.WriteFile(debris, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
		old := time.Now().Add(-2 * defaultTuning.gcTmpAge)
		if err := os.Chtimes(debris, old, old); err != nil {
			t.Fatal(err)
		}
		return debris
	}

	debris := seed()
	Options{Store: dir}.store()
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatal("first store() did not sweep")
	}

	// Aliased spellings of the same directory: trailing slash and a
	// redundant "." component. Neither may sweep again.
	debris = seed()
	for _, alias := range []string{dir + string(filepath.Separator), filepath.Join(dir, ".") + string(filepath.Separator)} {
		Options{Store: alias}.store()
		if _, err := os.Stat(debris); err != nil {
			t.Fatalf("aliased spelling %q ran a second GC sweep", alias)
		}
	}
}

// TestRunStoreGCRunsOncePerDir: Options.store() triggers exactly one GC
// sweep per directory per process (via storeGCDone), and only with the
// default filesystem seam.
func TestRunStoreGCRunsOncePerDir(t *testing.T) {
	dir := t.TempDir()
	// Debris old enough for the default tuning's gcTmpAge.
	debris := filepath.Join(dir, "zzz.tmp1")
	if err := os.WriteFile(debris, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * defaultTuning.gcTmpAge)
	if err := os.Chtimes(debris, old, old); err != nil {
		t.Fatal(err)
	}

	opt := Options{Store: dir}
	if s := opt.store(); s == nil {
		t.Fatal("store() returned nil with Store set")
	}
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatal("first store() did not run the GC sweep")
	}

	// Re-seed debris: the second handle must NOT sweep again.
	if err := os.WriteFile(debris, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(debris, old, old); err != nil {
		t.Fatal(err)
	}
	opt.store()
	if _, err := os.Stat(debris); err != nil {
		t.Fatal("second store() swept again (GC must be once per process per dir)")
	}
}

// TestRunStoreStoreMaxBytesOption: the public StoreMaxBytes knob feeds
// the GC size cap through Options.store().
func TestRunStoreStoreMaxBytesOption(t *testing.T) {
	opt := Options{Store: t.TempDir(), StoreMaxBytes: 4096}
	s := opt.store()
	if s == nil || s.tun.maxBytes != 4096 {
		t.Fatalf("StoreMaxBytes not plumbed into tuning: %+v", s)
	}
}
