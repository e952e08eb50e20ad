package experiments

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"codesignvm/internal/codecache"
	"codesignvm/internal/experiments/faultfs"
	"codesignvm/internal/obs"
	"codesignvm/internal/obs/attrib"
	"codesignvm/internal/vmm"
)

// Persistent run store: the process-wide run-result cache (runcache.go)
// spilled to disk, so a warm sweep in a *fresh process* is near-free.
// Each finished simulation is written to <dir>/<hash>.run, keyed by a
// content hash over (schema version, normalized machine configuration,
// application, scale, instruction budget). Records are CRC-guarded
// (`CRUN2`): a Castagnoli CRC-32 trailer over the whole payload plus a
// trailing-EOF check reject truncated, bit-flipped or extended files;
// corrupt entries are quarantined to a `.bad` sidecar and re-simulated.
//
// Concurrent processes single-flight through a <hash>.lock file (a
// token-holding temp file hard-linked to the lock name, which fails if
// the lock exists) whose owner refreshes its mtime from a heartbeat
// goroutine; waiters poll with exponential backoff under a hard
// deadline and steal locks whose mtime goes stale (owner crashed)
// through a marker-arbitrated rename, so exactly one waiter wins a
// steal. docs/runstore.md specifies the full protocol. Store failures
// of any kind (read-only dir, full disk, corrupt or vanished files,
// hung peers, cancelled context) degrade to simulating — persistence
// is an accelerator, never a correctness dependency.
//
// All filesystem access goes through a faultfs.FS seam so the fault-
// injection suite (storefault_test.go) can simulate kill-mid-write,
// truncation, bit flips, ENOSPC and EROFS deterministically.

const (
	runMagic = "CRUN2"
	// runSchema versions the key derivation and record encoding; bump it
	// whenever vmm.Config, vmm.Result or the encoding change shape so
	// stale stores miss instead of misread. The config's textual %#v
	// form is hashed, so most Config changes invalidate keys on their
	// own; the version covers Result/encoding changes.
	// v2: appended observability metric snapshots (Result.Metrics).
	// v3: CRUN2 — CRC-32C trailer + trailing-EOF verification.
	// v4: warm-start — Result.RestoredTranslations/RestoredX86 appended
	//     and vmm.Config gained the WarmStart/Restore* fields (which
	//     change the hashed %#v form on their own).
	// v5: labeled metrics (Metric.Labels after Unit) and the trailing
	//     cycle-attribution section (Result.Attrib); keys additionally
	//     hash the attribution-spec string, so attributing and plain
	//     runs occupy distinct entries.
	runSchema = 5
)

// storeTuning groups the lock-protocol and GC time/size constants so
// tests can shrink the timescales; defaultTuning holds the production
// values.
type storeTuning struct {
	// lockStale is how long a lock file's mtime may sit unrefreshed
	// before a waiter assumes the owner died and steals it. The owner's
	// heartbeat refreshes the mtime well inside this window, so live
	// owners are never stolen from, however long they simulate.
	lockStale time.Duration
	// heartbeat is the owner-side mtime refresh period.
	heartbeat time.Duration
	// pollMin/pollMax bound the waiter's exponential backoff between
	// checks for the owner's published result.
	pollMin, pollMax time.Duration
	// waitMax is the hard deadline on one lock wait: past it the waiter
	// stops trusting single-flight (hung but heartbeating peer, clock
	// trouble) and degrades to simulating without the lock.
	waitMax time.Duration
	// gcTmpAge is how old an orphaned .tmp* or .steal.* file must be
	// before GC collects it.
	gcTmpAge time.Duration
	// maxBytes caps the total size of .run/.bad records; GC evicts
	// least-recently-used records (by access time, maintained with an
	// explicit touch on every hit so noatime mounts behave) until the
	// store fits. 0 = uncapped.
	maxBytes int64
}

var defaultTuning = storeTuning{
	lockStale: 10 * time.Minute,
	heartbeat: time.Minute,
	pollMin:   25 * time.Millisecond,
	pollMax:   time.Second,
	waitMax:   30 * time.Minute,
	gcTmpAge:  time.Hour,
}

// Store health counters, observable by tests and the overhead report
// without an observer attached (reads and writes race-free via
// atomics). The obs metrics mirror these per process.
var (
	storeHits        atomic.Uint64 // disk-store loads
	storeCorrupt     atomic.Uint64 // quarantined records
	storeSteals      atomic.Uint64 // stale locks stolen
	storeTimeouts    atomic.Uint64 // lock waits past waitMax (degraded)
	storeGCEvictions atomic.Uint64 // records evicted by the size cap
)

// lockSeq disambiguates lock tokens minted by one process.
var lockSeq atomic.Uint64

// runStore is one handle on a store directory: the directory, the
// filesystem seam, the tuning constants, and the observability hooks.
// Options.store builds it; the zero value is not usable.
type runStore struct {
	dir string
	fs  faultfs.FS
	tun storeTuning
	obs *obs.Observer
	ctx context.Context
}

// storeGCDone gates the once-per-process-per-directory GC sweep. Keys
// are canonical absolute paths (canonicalStoreDir), never the raw
// Options.Store spelling: relative vs absolute (or trailing-slash)
// spellings of one directory must share a single gate, or two
// concurrent GC sweeps race over the same files.
var storeGCDone sync.Map // canonical dir -> *sync.Once

// canonicalStoreDir resolves a store-directory spelling to the one
// gate key all aliases of the directory share.
func canonicalStoreDir(dir string) string {
	if abs, err := filepath.Abs(dir); err == nil {
		return abs
	}
	return filepath.Clean(dir)
}

// store builds the runStore handle for these options, or nil when
// persistence is disabled. The first handle per directory (with the
// default seams) runs one GC sweep.
func (o Options) store() *runStore {
	if o.Store == "" {
		return nil
	}
	s := &runStore{dir: o.Store, fs: o.storeFS, tun: defaultTuning, obs: o.Obs, ctx: o.ctx()}
	if o.storeTun != nil {
		s.tun = *o.storeTun
	}
	if o.StoreMaxBytes > 0 {
		s.tun.maxBytes = o.StoreMaxBytes
	}
	if s.fs == nil {
		s.fs = faultfs.Disk{}
		once, _ := storeGCDone.LoadOrStore(canonicalStoreDir(o.Store), new(sync.Once))
		once.(*sync.Once).Do(s.gc)
	}
	return s
}

// ctx returns the options' cancellation context (Background when unset).
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// runFileKey derives the content-hash key of one simulation. The
// unread, deprecated Config.Pipeline is zeroed so a caller that still
// sets it shares the store entry. attribKey is the canonical attribution-spec
// string ("" when attribution is off): attribution never changes the
// simulated cycles, but an attributing result carries extra payload a
// plain request must not be served (and vice versa), so the two key
// separately.
func runFileKey(cfg vmm.Config, app string, scale int, instrs uint64, attribKey string) string {
	cfg.Pipeline = false
	h := sha256.New()
	fmt.Fprintf(h, "v%d\n%#v\n%s\n%d\n%d\n%s\n", runSchema, cfg, app, scale, instrs, attribKey)
	return hex.EncodeToString(h.Sum(nil))[:32]
}

func (s *runStore) runPath(key string) string  { return filepath.Join(s.dir, key+".run") }
func (s *runStore) lockPath(key string) string { return filepath.Join(s.dir, key+".lock") }
func (s *runStore) snapPath(key string) string { return filepath.Join(s.dir, key+".ccvm") }

// load reads a previously persisted result, returning (nil, nil) on
// any miss — absent file, failed checksum, truncation — so callers
// fall back to simulating. Corrupt entries are quarantined to a .bad
// sidecar (never re-read, kept for diagnosis); hits are touched so the
// size-cap GC evicts least-recently-used records.
func (s *runStore) load(key string) (*vmm.Result, error) {
	path := s.runPath(key)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return nil, nil
	}
	res, derr := decodeResult(data)
	if derr != nil {
		s.quarantine(key, path, len(data), derr)
		return nil, nil
	}
	storeHits.Add(1)
	now := time.Now()
	s.fs.Chtimes(path, now, now) // LRU touch; best-effort
	return res, nil
}

// loadSnapshot reads a persisted translation snapshot (<key>.ccvm),
// returning nil on any miss so callers rebuild from a cold run. The
// snapshot's own CRC-32C sections are the integrity check; a file that
// fails to parse — or does not hold exactly the two sections
// vmm.SaveTranslations writes (a stream truncated at a section boundary
// is section-wise valid) — is quarantined like a corrupt run record.
func (s *runStore) loadSnapshot(key string) *codecache.Snapshot {
	path := s.snapPath(key)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return nil
	}
	snap, perr := codecache.ParseSnapshot(data)
	if perr == nil && snap.Sections != 2 {
		perr = fmt.Errorf("experiments: snapshot has %d sections, want 2", snap.Sections)
	}
	if perr != nil {
		s.quarantine(key, path, len(data), perr)
		return nil
	}
	storeHits.Add(1)
	now := time.Now()
	s.fs.Chtimes(path, now, now) // LRU touch; best-effort
	return snap
}

// saveSnapshot persists one translation snapshot atomically (temp file
// + rename, like save). Best-effort for callers.
func (s *runStore) saveSnapshot(key string, data []byte) error {
	if err := s.fs.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	tmp, err := s.fs.CreateTemp(s.dir, key+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.fs.Remove(tmp.Name())
		return err
	}
	return s.fs.Rename(tmp.Name(), s.snapPath(key))
}

// quarantine moves a corrupt record aside as <key>.bad so it is never
// re-read (every future lookup would otherwise re-fail on it) while
// preserving the bytes for diagnosis. Best-effort: when even the
// rename fails (read-only store) the entry simply stays a miss.
func (s *runStore) quarantine(key, path string, size int, reason error) {
	storeCorrupt.Add(1)
	s.fs.Rename(path, filepath.Join(s.dir, key+".bad"))
	if s.obs != nil {
		s.obs.Proc.Counter("store.corrupt", "records").Inc()
		s.obs.Emit(obs.EvStoreCorrupt, key, 0, uint64(size), 0, 0)
	}
}

// save persists a finished result atomically (temp file + rename, so
// concurrent readers never observe a partial record). Errors are
// returned for logging but callers treat them as non-fatal; a failed
// write removes its temp file (best-effort — a killed process leaves
// an orphan for GC).
func (s *runStore) save(key string, res *vmm.Result) error {
	if err := s.fs.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	tmp, err := s.fs.CreateTemp(s.dir, key+".tmp*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(encodeResult(res))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.fs.Remove(tmp.Name())
		return err
	}
	return s.fs.Rename(tmp.Name(), s.runPath(key))
}

// acquire tries to become the single flight for key across processes.
// It returns won=true with a release func when this process should
// produce the artifact (release is a no-op if the wait degraded),
// won=false after another process's artifact appeared at the given
// path (the caller re-reads the store), or err when the context was
// cancelled mid-wait. Run results and translation snapshots share the
// protocol; the artifact path is what waiters poll for.
func (s *runStore) acquire(key, artifact string) (release func(), won bool, err error) {
	if err := s.fs.MkdirAll(s.dir, 0o755); err != nil {
		return func() {}, true, nil // can't lock: just simulate
	}
	lock := s.lockPath(key)
	start := time.Now()
	deadline := start.Add(s.tun.waitMax)
	wait := s.tun.pollMin
	defer func() {
		if s.obs != nil {
			s.obs.Proc.Histogram("store.lock_wait_ns", "ns", obs.BucketsPow2(1<<20, 16)).
				Observe(uint64(time.Since(start)))
		}
	}()
	for {
		rel, ok, fatal := s.tryLock(lock)
		if fatal || ok {
			return rel, true, nil
		}
		// Another process is simulating this key: wait for its result,
		// stealing the lock if its heartbeat goes stale (owner crashed).
		if st, serr := s.fs.Stat(lock); serr == nil && time.Since(st.ModTime()) > s.tun.lockStale {
			if s.steal(lock, key, st) {
				continue // corpse cleared; re-contend immediately
			}
		}
		if time.Now().After(deadline) {
			// Hard deadline: a peer that heartbeats but never publishes
			// (hung, or its store writes fail forever) must not wedge the
			// sweep. Give up on single-flight and simulate.
			storeTimeouts.Add(1)
			if s.obs != nil {
				s.obs.Proc.Counter("store.lock_timeouts", "waits").Inc()
			}
			return func() {}, true, nil
		}
		select {
		case <-s.ctx.Done():
			return nil, false, s.ctx.Err()
		case <-time.After(wait):
		}
		if wait *= 2; wait > s.tun.pollMax {
			wait = s.tun.pollMax
		}
		if _, serr := s.fs.Stat(artifact); serr == nil {
			return nil, false, nil
		}
	}
}

// tryLock takes the lock by writing the owner token to a temp file and
// linking it to the lock name, which fails if the lock exists. A lock
// therefore never exists without its token: a process killed at any
// point leaves no lock, or one whose token names it (a killed writer's
// temp file is removed by gc). ok means the lock was taken (release
// stops the heartbeat and removes the lock if still owned); fatal means
// locking is impossible (read-only store, dead filesystem, no hard
// links) and the caller should simulate without it.
func (s *runStore) tryLock(lock string) (release func(), ok, fatal bool) {
	// The token identifies this owner; release verifies it before
	// removing so a release after a (mistaken) steal cannot delete the
	// next owner's live lock.
	token := fmt.Sprintf("pid %d seq %d t %d\n", os.Getpid(), lockSeq.Add(1), time.Now().UnixNano())
	tmp, err := s.fs.CreateTemp(s.dir, filepath.Base(lock)+".tmp*")
	if err != nil {
		return func() {}, false, true // unexpected lock failure: simulate
	}
	_, err = io.WriteString(tmp, token)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = s.fs.Link(tmp.Name(), lock)
	}
	s.fs.Remove(tmp.Name())
	if err != nil {
		if os.IsExist(err) {
			return nil, false, false
		}
		return func() {}, false, true
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // owner heartbeat: keep the lock visibly alive
		defer wg.Done()
		t := time.NewTicker(s.tun.heartbeat)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-t.C:
				if s.fs.Chtimes(lock, now, now) != nil {
					return // lock gone (stolen or store broken): stop touching
				}
			}
		}
	}()
	return func() {
		close(stop)
		wg.Wait()
		if data, rerr := s.fs.ReadFile(lock); rerr == nil && string(data) == token {
			s.fs.Remove(lock)
		}
	}, true, false
}

// steal clears a stale lock via a marker-arbitrated rename, so of N
// waiters observing the same corpse exactly one acts. The marker name
// encodes the corpse's mtime (its incarnation): O_EXCL creation of the
// marker elects the stealer, a re-stat confirms the corpse is still
// the incarnation we marked (not a fresh lock that reused the path),
// and only then is the corpse renamed away and removed. Returns true
// when the path is clear for re-contention.
func (s *runStore) steal(lock, key string, st os.FileInfo) bool {
	marker := fmt.Sprintf("%s.steal.%d", lock, st.ModTime().UnixNano())
	mf, err := s.fs.OpenFile(marker, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			// Another waiter owns this steal. If it crashed mid-steal the
			// marker itself goes stale; clear it so the corpse is
			// eventually collectable.
			if mst, serr := s.fs.Stat(marker); serr == nil && time.Since(mst.ModTime()) > s.tun.lockStale {
				s.fs.Remove(marker)
			}
		}
		return false
	}
	mf.Close()
	cur, serr := s.fs.Stat(lock)
	if serr != nil || !cur.ModTime().Equal(st.ModTime()) {
		// The corpse vanished (owner released: path clear) or was
		// replaced by a live lock (not ours to touch); either way this
		// incarnation is gone, so withdraw the marker.
		s.fs.Remove(marker)
		return serr != nil
	}
	grave := marker + ".lock"
	if s.fs.Rename(lock, grave) != nil {
		s.fs.Remove(marker)
		return false
	}
	s.fs.Remove(grave)
	s.fs.Remove(marker)
	storeSteals.Add(1)
	if s.obs != nil {
		s.obs.Proc.Counter("store.lock_steals", "steals").Inc()
		s.obs.Emit(obs.EvStoreSteal, key, 0, uint64(time.Since(st.ModTime())), 0, 0)
	}
	return true
}

// gc sweeps the store directory: orphaned temp files and steal debris
// past gcTmpAge are removed, stale locks are stolen (same arbitration
// as waiters use), and when a size cap is set, least-recently-used
// record *groups* are evicted until the store fits. One sweep runs per
// process per directory, at first use; it is advisory and every step
// is best-effort.
//
// Eviction is per key, never per file: a run record and its sibling
// artifacts (the <key>.ccvm warm-start snapshot, a .bad quarantine, a
// .unit done marker) leave or stay together, so GC can never orphan a
// snapshot whose run record is gone (or vice versa). A key whose .lock
// is currently live (mtime within lockStale — a heartbeating owner) is
// skipped entirely: GC must not delete a record out from under an
// in-flight writer or a waiter about to load it.
func (s *runStore) gc() {
	ents, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return
	}
	type group struct {
		key   string
		paths []string
		sizes []int64
		total int64
		atime time.Time // newest member access time: one hot file keeps its siblings
	}
	groups := map[string]*group{}
	live := map[string]bool{} // keys with a live (non-stale) lock
	var total int64
	removed, evicted := 0, 0
	now := time.Now()
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		name := ent.Name()
		path := filepath.Join(s.dir, name)
		fi, err := ent.Info()
		if err != nil {
			continue
		}
		age := now.Sub(fi.ModTime())
		switch {
		case strings.Contains(name, ".tmp"):
			// A crashed writer's partial record: never renamed into
			// place, so never read — pure garbage once old enough.
			if age > s.tun.gcTmpAge {
				if s.fs.Remove(path) == nil {
					removed++
				}
			}
		case strings.Contains(name, ".steal."):
			// Debris from a stealer that crashed between marker and
			// rename (or a renamed grave it never removed).
			if age > s.tun.gcTmpAge {
				if s.fs.Remove(path) == nil {
					removed++
				}
			}
		case strings.HasSuffix(name, ".lock"):
			key := strings.TrimSuffix(name, ".lock")
			if age > s.tun.lockStale {
				if s.steal(path, key, fi) {
					removed++
				}
			} else {
				live[key] = true
			}
		case strings.HasSuffix(name, ".run") || strings.HasSuffix(name, ".bad") ||
			strings.HasSuffix(name, ".ccvm") || strings.HasSuffix(name, ".unit"):
			key := name[:strings.LastIndexByte(name, '.')]
			g := groups[key]
			if g == nil {
				g = &group{key: key}
				groups[key] = g
			}
			g.paths = append(g.paths, path)
			g.sizes = append(g.sizes, fi.Size())
			g.total += fi.Size()
			if fi.ModTime().After(g.atime) {
				g.atime = fi.ModTime()
			}
			total += fi.Size()
		}
	}
	if s.tun.maxBytes > 0 && total > s.tun.maxBytes {
		// Evict whole key groups by access time (maintained by load's
		// explicit touch, so this is LRU even on noatime mounts),
		// oldest group first; ties break on key for determinism.
		ordered := make([]*group, 0, len(groups))
		for _, g := range groups {
			ordered = append(ordered, g)
		}
		sort.Slice(ordered, func(i, j int) bool {
			if !ordered[i].atime.Equal(ordered[j].atime) {
				return ordered[i].atime.Before(ordered[j].atime)
			}
			return ordered[i].key < ordered[j].key
		})
		for _, g := range ordered {
			if total <= s.tun.maxBytes {
				break
			}
			if live[g.key] {
				continue // in-flight key: never evict under a live lock
			}
			for i, p := range g.paths {
				if s.fs.Remove(p) == nil {
					total -= g.sizes[i]
					evicted++
				}
			}
		}
		storeGCEvictions.Add(uint64(evicted))
	}
	if s.obs != nil && (removed > 0 || evicted > 0) {
		s.obs.Proc.Counter("store.gc_evictions", "files").Add(uint64(evicted))
		s.obs.Emit(obs.EvStoreGC, filepath.Base(s.dir), 0, uint64(removed), uint64(evicted), 0)
	}
}

// crcTable is the Castagnoli polynomial (same choice as iSCSI/ext4:
// hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// encodeResult renders one record: the CRUN2 magic and payload
// (writeResult), then a little-endian CRC-32C trailer over everything
// before it. Any truncation, extension or bit flip of the file breaks
// the trailer.
func encodeResult(r *vmm.Result) []byte {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeResult(bw, r); err == nil {
		bw.Flush()
	}
	sum := crc32.Checksum(buf.Bytes(), crcTable)
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], sum)
	return append(buf.Bytes(), trailer[:]...)
}

// decodeResult verifies and decodes what encodeResult produced: the
// CRC trailer must match, the payload must decode, and the decoder
// must consume the payload exactly (one further read returns io.EOF) —
// a record truncated at a section boundary or with appended bytes is
// rejected even before the checksum existed.
func decodeResult(data []byte) (*vmm.Result, error) {
	if len(data) < len(runMagic)+4 {
		return nil, fmt.Errorf("experiments: run record too short (%d bytes)", len(data))
	}
	payload, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(trailer); got != want {
		return nil, fmt.Errorf("experiments: run record checksum mismatch (got %08x, want %08x)", got, want)
	}
	br := bytes.NewReader(payload)
	res, err := readResult(br)
	if err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("experiments: trailing bytes after run record")
	}
	return res, nil
}

// writeResult encodes one vmm.Result. Field order is fixed; floats are
// stored as IEEE-754 bits. Samples are the only variable-length part.
func writeResult(w *bufio.Writer, r *vmm.Result) error {
	if _, err := w.WriteString(runMagic); err != nil {
		return err
	}
	le := func(vs ...uint64) error {
		for _, v := range vs {
			if err := binary.Write(w, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		return nil
	}
	fbits := func(fs ...float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	bool64 := uint64(0)
	if r.Halted {
		bool64 = 1
	}
	if err := le(uint64(r.Strategy), bool64, r.Instrs); err != nil {
		return err
	}
	if err := le(fbits(r.Cycles)...); err != nil {
		return err
	}
	if err := le(fbits(r.Cat[:]...)...); err != nil {
		return err
	}
	if err := le(r.BBTUops, r.BBTEntities, r.SBTUops, r.SBTEntities,
		r.BBTTranslations, r.SBTTranslations, r.BBTX86Translated, r.SBTX86Translated,
		r.XltInvocations, r.XltBusyCycles, r.Callouts,
		r.JTLBHits, r.JTLBMisses, r.ShadowEvictions,
		r.SBTInstrs, r.BBTInstrs, r.X86Instrs, r.InterpInstrs,
		r.RestoredTranslations, r.RestoredX86); err != nil {
		return err
	}
	if err := le(fbits(r.X86ModeCycles)...); err != nil {
		return err
	}
	if err := le(uint64(len(r.Samples))); err != nil {
		return err
	}
	for i := range r.Samples {
		s := &r.Samples[i]
		if err := le(fbits(s.Cycles)...); err != nil {
			return err
		}
		if err := le(s.Instrs); err != nil {
			return err
		}
		if err := le(fbits(s.Cat[:]...)...); err != nil {
			return err
		}
		if err := le(fbits(s.XltBusy)...); err != nil {
			return err
		}
	}
	// Observability snapshot (schema v2): count, then per metric the
	// name/unit strings, kind, value bits, observation count and buckets.
	wstr := func(s string) error {
		if err := le(uint64(len(s))); err != nil {
			return err
		}
		_, err := w.WriteString(s)
		return err
	}
	if err := le(uint64(len(r.Metrics))); err != nil {
		return err
	}
	for i := range r.Metrics {
		m := &r.Metrics[i]
		if err := wstr(m.Name); err != nil {
			return err
		}
		if err := wstr(m.Unit); err != nil {
			return err
		}
		if err := wstr(m.Labels); err != nil {
			return err
		}
		if err := le(uint64(m.Kind), math.Float64bits(m.Value), m.Count, uint64(len(m.Buckets))); err != nil {
			return err
		}
		for _, b := range m.Buckets {
			if err := le(b.Le, b.Count); err != nil {
				return err
			}
		}
	}
	// Cycle-attribution section (schema v5): a presence flag, then the
	// snapshot — category cycles, reconciliation totals, region-grid
	// geometry, the non-empty regions and the milestone phases.
	if r.Attrib == nil {
		return le(0)
	}
	a := r.Attrib
	if err := le(1); err != nil {
		return err
	}
	if err := le(fbits(a.Cat[:]...)...); err != nil {
		return err
	}
	if err := le(fbits(a.TotalCycles, a.Residual)...); err != nil {
		return err
	}
	if err := le(uint64(a.RegionBase), uint64(a.RegionShift), uint64(len(a.Regions))); err != nil {
		return err
	}
	for i := range a.Regions {
		rg := &a.Regions[i]
		if err := le(uint64(rg.Slot)); err != nil {
			return err
		}
		if err := le(fbits(rg.Cat[:]...)...); err != nil {
			return err
		}
	}
	if err := le(uint64(len(a.Phases))); err != nil {
		return err
	}
	for i := range a.Phases {
		ph := &a.Phases[i]
		if err := le(ph.Milestone, ph.Instrs, math.Float64bits(ph.Cycles)); err != nil {
			return err
		}
		if err := le(fbits(ph.Cat[:]...)...); err != nil {
			return err
		}
	}
	return nil
}

// readResult decodes what writeResult wrote.
func readResult(br *bytes.Reader) (*vmm.Result, error) {
	magic := make([]byte, len(runMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != runMagic {
		return nil, fmt.Errorf("experiments: bad run-store magic %q", magic)
	}
	var scratch [8]byte
	le := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:]), nil
	}
	lef := func() (float64, error) {
		v, err := le()
		return math.Float64frombits(v), err
	}
	r := &vmm.Result{}
	var err error
	read64 := func(dst *uint64) {
		if err == nil {
			*dst, err = le()
		}
	}
	readf := func(dst *float64) {
		if err == nil {
			*dst, err = lef()
		}
	}
	var strat, halted uint64
	read64(&strat)
	read64(&halted)
	read64(&r.Instrs)
	readf(&r.Cycles)
	for i := range r.Cat {
		readf(&r.Cat[i])
	}
	for _, dst := range []*uint64{
		&r.BBTUops, &r.BBTEntities, &r.SBTUops, &r.SBTEntities,
		&r.BBTTranslations, &r.SBTTranslations, &r.BBTX86Translated, &r.SBTX86Translated,
		&r.XltInvocations, &r.XltBusyCycles, &r.Callouts,
		&r.JTLBHits, &r.JTLBMisses, &r.ShadowEvictions,
		&r.SBTInstrs, &r.BBTInstrs, &r.X86Instrs, &r.InterpInstrs,
		&r.RestoredTranslations, &r.RestoredX86,
	} {
		read64(dst)
	}
	readf(&r.X86ModeCycles)
	var nSamples uint64
	read64(&nSamples)
	if err != nil {
		return nil, err
	}
	if nSamples > 1<<24 {
		return nil, fmt.Errorf("experiments: implausible sample count %d", nSamples)
	}
	r.Strategy = vmm.Strategy(strat)
	r.Halted = halted != 0
	r.Samples = make([]vmm.Sample, nSamples)
	for i := range r.Samples {
		s := &r.Samples[i]
		readf(&s.Cycles)
		read64(&s.Instrs)
		for j := range s.Cat {
			readf(&s.Cat[j])
		}
		readf(&s.XltBusy)
	}
	rstr := func() (string, error) {
		n, err := le()
		if err != nil {
			return "", err
		}
		if n > 1<<12 {
			return "", fmt.Errorf("experiments: implausible metric-string length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}
	var nMetrics uint64
	read64(&nMetrics)
	if err != nil {
		return nil, err
	}
	if nMetrics > 1<<16 {
		return nil, fmt.Errorf("experiments: implausible metric count %d", nMetrics)
	}
	// A zero count decodes to a nil snapshot, so a result persisted by an
	// uninstrumented run round-trips to exactly the in-memory original.
	for i := uint64(0); i < nMetrics; i++ {
		var m obs.Metric
		if m.Name, err = rstr(); err != nil {
			return nil, err
		}
		if m.Unit, err = rstr(); err != nil {
			return nil, err
		}
		if m.Labels, err = rstr(); err != nil {
			return nil, err
		}
		var kind, vbits, nBuckets uint64
		read64(&kind)
		read64(&vbits)
		read64(&m.Count)
		read64(&nBuckets)
		if err != nil {
			return nil, err
		}
		if nBuckets > 1<<12 {
			return nil, fmt.Errorf("experiments: implausible bucket count %d", nBuckets)
		}
		m.Kind = obs.Kind(kind)
		m.Value = math.Float64frombits(vbits)
		for j := uint64(0); j < nBuckets; j++ {
			var b obs.Bucket
			read64(&b.Le)
			read64(&b.Count)
			m.Buckets = append(m.Buckets, b)
		}
		r.Metrics = append(r.Metrics, m)
	}
	var hasAttrib uint64
	read64(&hasAttrib)
	if err != nil {
		return nil, err
	}
	if hasAttrib > 1 {
		return nil, fmt.Errorf("experiments: bad attribution flag %d", hasAttrib)
	}
	if hasAttrib == 1 {
		a := &attrib.Snapshot{}
		for i := range a.Cat {
			readf(&a.Cat[i])
		}
		readf(&a.TotalCycles)
		readf(&a.Residual)
		var base, shift, nRegions uint64
		read64(&base)
		read64(&shift)
		read64(&nRegions)
		if err != nil {
			return nil, err
		}
		if nRegions > 1<<20 {
			return nil, fmt.Errorf("experiments: implausible region count %d", nRegions)
		}
		a.RegionBase = uint32(base)
		a.RegionShift = uint8(shift)
		for i := uint64(0); i < nRegions; i++ {
			var slot uint64
			read64(&slot)
			rg := attrib.RegionCycles{Slot: int(slot)}
			for c := range rg.Cat {
				readf(&rg.Cat[c])
			}
			a.Regions = append(a.Regions, rg)
		}
		var nPhases uint64
		read64(&nPhases)
		if err != nil {
			return nil, err
		}
		if nPhases > 1<<16 {
			return nil, fmt.Errorf("experiments: implausible phase count %d", nPhases)
		}
		for i := uint64(0); i < nPhases; i++ {
			var ph attrib.Phase
			read64(&ph.Milestone)
			read64(&ph.Instrs)
			readf(&ph.Cycles)
			for c := range ph.Cat {
				readf(&ph.Cat[c])
			}
			a.Phases = append(a.Phases, ph)
		}
		r.Attrib = a
	}
	if err != nil {
		return nil, err
	}
	return r, nil
}
