package vmm

import (
	"math"

	"codesignvm/internal/codecache"
	"codesignvm/internal/obs"
	"codesignvm/internal/obs/attrib"
)

// Observability wiring. The VM carries an optional *vmObs holding the
// run's recorder plus pre-registered metric handles, so every emission
// site costs one nil check when observability is disabled and no
// registry lookups when it is enabled. All sites are on the functional
// path (dispatch, translators, flush/eviction handlers), so event order
// is the functional execution order. Nothing here is read back by the
// simulation: observability is purely observational (see internal/obs).

// jtlbEpochInterval is the slow-path dispatch-lookup count between
// EvJTLBEpoch summaries. Per-lookup events would swamp a trace (the
// JTLB fronts every non-chained dispatch), so hit/miss behaviour is
// reported as periodic cumulative snapshots.
const jtlbEpochInterval = 1 << 16

// vmObs caches the metric handles of one run's recorder.
type vmObs struct {
	rec *obs.Recorder

	// Live-updated at their (rare) emission sites.
	bbtTranslations *obs.Counter
	sbtPromotions   *obs.Counter
	chains          *obs.Counter
	unchains        *obs.Counter
	bbtFlushes      *obs.Counter
	sbtFlushes      *obs.Counter
	shadowEvicts    *obs.Counter
	jtlbEpochs      *obs.Counter

	bbtBlockX86 *obs.Histogram
	sbtBlockX86 *obs.Histogram

	// Warm-start restore handles, registered lazily by obsRestoreInit
	// (from VM.Restore): runs that never restore keep exactly the
	// pre-warm-start metric set, so their snapshots — and anything
	// derived from them — are unchanged byte for byte.
	restoreFaults *obs.Counter
}

// SetObserver attaches (or, with nil, detaches) an observability
// recorder. Call it before Run. The recorder hangs off the VM, never
// off Config: Config must stay a flat comparable value — it keys the
// experiment-layer run caches and is hashed for the persistent store.
//
// When the recorder carries a Timeline (Observer.EnableTimeline), the
// interval sampler is armed as well: the Run loop captures a slice at
// each interval boundary.
func (v *VM) SetObserver(rec *obs.Recorder) {
	v.tl = rec.Timeline()
	v.prof = rec.Attrib()
	if v.tl != nil {
		v.tlNext = v.tl.NextBoundary()
	} else {
		v.tlNext = math.Inf(1)
	}
	if rec == nil {
		v.obs = nil
		return
	}
	reg := rec.Reg
	v.obs = &vmObs{
		rec:             rec,
		bbtTranslations: reg.Counter("vm.bbt.translations", "blocks"),
		sbtPromotions:   reg.Counter("vm.sbt.promotions", "superblocks"),
		chains:          reg.Counter("vm.chain.links", "links"),
		unchains:        reg.Counter("vm.chain.unlinks", "blocks"),
		bbtFlushes:      reg.Counter("vm.cache.bbt.flushes", "flushes"),
		sbtFlushes:      reg.Counter("vm.cache.sbt.flushes", "flushes"),
		shadowEvicts:    reg.Counter("vm.shadow.evictions", "blocks"),
		jtlbEpochs:      reg.Counter("vm.jtlb.epochs", "epochs"),
		bbtBlockX86:     reg.Histogram("vm.bbt.block_x86", "x86 instrs", obs.BucketsPow2(2, 8)),
		sbtBlockX86:     reg.Histogram("vm.sbt.superblock_x86", "x86 instrs", obs.BucketsPow2(4, 8)),
	}
}

// Observer returns the attached recorder (nil when disabled).
func (v *VM) Observer() *obs.Recorder {
	if v.obs == nil {
		return nil
	}
	return v.obs.rec
}

func (v *VM) obsRunStart(budget uint64) {
	v.obs.rec.EmitAt(obs.EvRunStart, 0, v.instrs, budget, 0, 0)
}

// obsRunEnd mirrors the statistics the simulator already keeps (Result
// fields, code-cache stats) into the registry — mirrored once here
// instead of double-counted on the hot path — emits the closing event,
// and attaches the snapshot to the Result.
func (v *VM) obsRunEnd() {
	o := v.obs
	reg := o.rec.Reg
	reg.Counter("vm.run.instrs", "instrs").Store(v.res.Instrs)
	reg.Gauge("vm.run.cycles", "cycles").Set(v.res.Cycles)
	reg.Counter("vm.run.callouts", "callouts").Store(v.res.Callouts)
	reg.Counter("vm.jtlb.hits", "lookups").Store(v.res.JTLBHits)
	reg.Counter("vm.jtlb.misses", "lookups").Store(v.res.JTLBMisses)
	reg.Gauge("vm.shadow.resident", "blocks").Set(float64(v.shadow.len()))
	for _, c := range [...]struct {
		name  string
		cache *codecache.Cache
	}{{"bbt", v.bbtCache}, {"sbt", v.sbtCache}} {
		st := c.cache.Stats()
		p := "vm.cache." + c.name + "."
		reg.Counter(p+"inserts", "translations").Store(st.Inserts)
		reg.Counter(p+"lookups", "lookups").Store(st.Lookups)
		reg.Counter(p+"hits", "lookups").Store(st.Hits)
		reg.Counter(p+"chains", "links").Store(st.Chains)
		reg.Gauge(p+"used", "bytes").Set(float64(c.cache.Used()))
		reg.Gauge(p+"live", "translations").Set(float64(c.cache.Len()))
	}
	if v.warm != nil {
		reg.Counter("vm.restore.translations", "translations").Store(v.res.RestoredTranslations)
		reg.Counter("vm.restore.x86", "instrs").Store(v.res.RestoredX86)
		reg.Gauge("vm.restore.pending", "translations").
			Set(float64(len(v.warm.bbt) + len(v.warm.sbt)))
	}
	if s := v.res.Attrib; s != nil {
		// Mirror the attribution categories as one labeled counter
		// family (OpenMetrics: codesignvm_cycles_total{category="..."}).
		for c := attrib.Category(0); c < attrib.NumCategories; c++ {
			reg.CounterL("cycles", "cycles", obs.Label("category", c.String())).
				Store(uint64(math.Round(s.Cat[c])))
		}
		o.rec.SetAttrib(s)
	}
	o.rec.EmitAt(obs.EvRunEnd, 0, v.instrs, v.res.Instrs, uint64(v.res.Cycles), 0)
	v.res.Metrics = reg.Snapshot()
}

// obsRestoreInit registers the warm-start metric handles. Called from
// Restore, never from SetObserver, so cold runs' metric sets are
// untouched by the warm-start machinery existing.
func (v *VM) obsRestoreInit() {
	o := v.obs
	o.restoreFaults = o.rec.Reg.Counter("vm.restore.faults", "faults")
}

// obsRestore closes the Restore call: how much of the snapshot is
// restorable and what the mode preloaded eagerly.
func (v *VM) obsRestore(preloaded, preloadedX86 uint64) {
	o := v.obs
	o.rec.EmitAt(obs.EvRestore, 0, v.instrs,
		uint64(v.warm.snap.Len()), preloaded, preloadedX86)
}

// obsRestoreFault reports one lazy fault-in.
func (v *VM) obsRestoreFault(t *codecache.Translation) {
	o := v.obs
	o.restoreFaults.Inc()
	o.rec.EmitAt(obs.EvRestoreFault, t.EntryPC, v.instrs, uint64(t.NumX86), uint64(t.Size), 0)
}

func (v *VM) obsBBTTranslate(t *codecache.Translation) {
	o := v.obs
	o.bbtTranslations.Inc()
	o.bbtBlockX86.Observe(uint64(t.NumX86))
	o.rec.EmitAt(obs.EvBBTTranslate, t.EntryPC, v.instrs, uint64(t.NumX86), uint64(t.NumUops), uint64(t.Size))
}

func (v *VM) obsSBTPromote(t *codecache.Translation) {
	o := v.obs
	o.sbtPromotions.Inc()
	o.sbtBlockX86.Observe(uint64(t.NumX86))
	o.rec.EmitAt(obs.EvSBTPromote, t.EntryPC, v.instrs, uint64(t.NumX86), uint64(t.NumUops), uint64(t.Size))
}

func (v *VM) obsChain(from, to *codecache.Translation) {
	o := v.obs
	o.chains.Inc()
	o.rec.EmitAt(obs.EvChain, v.pc, v.instrs, uint64(from.EntryPC), uint64(to.EntryPC), 0)
}

func (v *VM) obsUnchain(old *codecache.Translation) {
	o := v.obs
	o.unchains.Inc()
	o.rec.EmitAt(obs.EvUnchain, old.EntryPC, v.instrs, v.bbtCache.Epoch(), 0, 0)
}

// obsFlush reports a code-cache flush; id is 0 for BBT, 1 for SBT.
func (v *VM) obsFlush(c *codecache.Cache, id uint64) {
	o := v.obs
	if id == 0 {
		o.bbtFlushes.Inc()
	} else {
		o.sbtFlushes.Inc()
	}
	o.rec.EmitAt(obs.EvCacheFlush, 0, v.instrs, id, c.Epoch(), c.Stats().Flushes)
}

func (v *VM) obsShadowEvict(evictedPC uint32) {
	o := v.obs
	o.shadowEvicts.Inc()
	o.rec.EmitAt(obs.EvShadowEvict, evictedPC, v.instrs, uint64(v.shadow.len()), 0, 0)
}

// obsJTLB emits a periodic cumulative hit/miss summary; call after each
// slow-path lookup has been counted in res.
func (v *VM) obsJTLB() {
	total := v.res.JTLBHits + v.res.JTLBMisses
	if total%jtlbEpochInterval != 0 {
		return
	}
	o := v.obs
	o.jtlbEpochs.Inc()
	o.rec.EmitAt(obs.EvJTLBEpoch, 0, v.instrs, v.res.JTLBHits, v.res.JTLBMisses, 0)
}
