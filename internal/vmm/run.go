package vmm

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"codesignvm/internal/bbt"
	"codesignvm/internal/codecache"
	"codesignvm/internal/fisa"
	"codesignvm/internal/hwassist"
	"codesignvm/internal/interp"
	"codesignvm/internal/obs"
	"codesignvm/internal/obs/attrib"
	"codesignvm/internal/profile"
	"codesignvm/internal/sbt"
	"codesignvm/internal/timing"
	"codesignvm/internal/x86"
)

// VM is one simulated machine executing one architected program.
//
// Functional work (Run/dispatch/execute and the translators) and timing
// work (the timing.go methods) run inline on the calling goroutine.
type VM struct {
	Cfg Config
	Mem *x86.Memory

	eng  *timing.Engine
	nst  fisa.NativeState
	arch x86.State
	itp  *interp.Machine

	bbtCache *codecache.Cache
	sbtCache *codecache.Cache
	shadow   *shadowTable
	jtlb     *codecache.JTLB
	det      detector
	edges    *profile.EdgeProfile

	invalidated []*codecache.Translation // BBT blocks superseded by SBT

	// Translator scratch. Translations are built into these reusable
	// buffers and committed — copied into arena-backed
	// storage — before they become reachable: Insert commits into the
	// owning cache's arena; shadow blocks commit into shadowArena, a
	// bounded never-reset arena (shadow blocks die individually via the
	// clock table, not at a flush, so their storage is bump-carved until
	// the bound and heap-allocated past it). metaBuf plays the same role
	// for timing.AnalyzeWith's per-µop metadata.
	bbtScratch  bbt.Scratch
	sbtFormer   sbt.Former
	metaBuf     []codecache.UopMeta
	shadowArena *codecache.Arena

	// Functional state.
	pc       uint32
	halted   bool
	prevT    *codecache.Translation
	prevExit int
	inX86    bool   // current frontend mode (VM.fe)
	instrs   uint64 // retired architected instructions (mirrors res.Instrs)

	// Observability (nil when disabled; see obs.go).
	obs *vmObs

	// Warm-start state (nil unless Restore attached a snapshot).
	// Fault-ins happen inside dispatch.
	warm *warmState

	// Timing state: the timing engine above plus everything below.
	xlt        *hwassist.XLTUnit
	dmd        *hwassist.DualModeDecoder
	cycles     float64
	spanStart  float64 // attribution span opened by blockStart
	res        Result
	nextSample float64

	// Interval sampler (see obs.go). tlNext is +Inf when
	// sampling is off, so the disabled cost on the timing path is the
	// single float compare guarding appendTimeline at each call site.
	tl     *obs.Timeline
	tlNext float64

	// Cycle-attribution profiler (nil when disabled —
	// every hook below is guarded by the nil check, so the disabled
	// cost is one predictable branch per timing site).
	prof *attrib.Profile
}

// New builds a VM over the program memory with the given initial
// architected state (EIP at the program entry, ESP at the stack top).
func New(cfg Config, mem *x86.Memory, init *x86.State) *VM {
	if cfg.SampleGrowth <= 1 {
		cfg.SampleGrowth = 1.25
	}
	v := &VM{
		Cfg:      cfg,
		Mem:      mem,
		eng:      timing.NewEngine(cfg.Timing),
		bbtCache: codecache.New("bbt", bbtCacheBase, cfg.BBTCacheSize),
		sbtCache: codecache.New("sbt", sbtCacheBase, cfg.SBTCacheSize),
		shadow:   newShadowTable(cfg.ShadowCap),
		jtlb:     codecache.NewJTLB(cfg.JTLBEntries),
		det:      newDetector(&cfg),
		edges:    profile.NewEdgeProfile(),
		xlt:      hwassist.NewXLTUnit(),
		dmd:      &hwassist.DualModeDecoder{},

		pc:         init.EIP,
		arch:       *init,
		nextSample: 1000,
		tlNext:     math.Inf(1),
	}
	if cfg.NoStartupSamples {
		v.nextSample = math.Inf(1)
	}
	// Bound the shadow arena relative to the shadow table: carving
	// stops (falling back to the heap) once roughly the table's
	// worst-case working set has been carved, so eviction churn cannot
	// grow the never-reset arena without bound.
	shadowCap := cfg.ShadowCap
	if shadowCap <= 0 {
		shadowCap = DefaultShadowCap
	}
	maxSlabs := shadowCap / 256
	if maxSlabs < 8 {
		maxSlabs = 8
	}
	v.shadowArena = codecache.NewBoundedArena(maxSlabs)
	v.nst.LoadArch(init)
	v.itp = interp.New(&v.arch, mem)
	v.res.Strategy = cfg.Strategy
	v.inX86 = cfg.Strategy == StratRef || cfg.Strategy == StratFE
	return v
}

// Engine exposes the timing engine (cache/predictor statistics).
func (v *VM) Engine() *timing.Engine { return v.eng }

// SaveTranslations serializes the live contents of both code caches
// (FX!32-style persistence: translate once, reuse across runs).
func (v *VM) SaveTranslations(w io.Writer) error {
	if err := v.bbtCache.Save(w); err != nil {
		return err
	}
	return v.sbtCache.Save(w)
}

// LoadTranslations restores previously saved translations into the code
// caches before (or during) a run, returning how many were loaded.
// Restored translations are re-analyzed for this machine's pipeline
// parameters; the architected binary must be the same one they were
// translated from.
func (v *VM) LoadTranslations(r io.Reader) (int, error) {
	br := bufio.NewReader(r) // one buffered view across both sections
	nb, err := v.bbtCache.Load(br)
	if err != nil {
		return nb, err
	}
	ns, err := v.sbtCache.Load(br)
	if err != nil {
		return nb + ns, err
	}
	for _, c := range []*codecache.Cache{v.bbtCache, v.sbtCache} {
		c.ForEach(func(t *codecache.Translation) {
			timing.AnalyzeWith(t, v.Cfg.Timing)
		})
	}
	return nb + ns, nil
}

// Caches exposes the code caches for inspection.
func (v *VM) Caches() (bbtC, sbtC *codecache.Cache) { return v.bbtCache, v.sbtCache }

// DetectorCount returns the profiled entry count for a region.
func (v *VM) DetectorCount(pc uint32) uint64 { return v.det.Count(pc) }

// OnBranch implements fisa.BranchProbe: conditional branches inside
// translations train the predictor; misprediction bubbles are queued for
// the timing replay in program order.
func (v *VM) OnBranch(pc uint32, taken bool) {
	pen := 0.0
	if v.eng.Pred.Cond(pc, taken) {
		pen = float64(v.eng.P.MispredictPenalty)
	}
	v.eng.NoteBranch(pen)
}

func (v *VM) setMode(x86mode bool) {
	if x86mode {
		v.eng.P.MispredictPenalty = v.Cfg.MispredictPenaltyX86
	} else {
		v.eng.P.MispredictPenalty = v.Cfg.Timing.MispredictPenalty
	}
}

// charge advances the machine clock by cycles of software activity and
// attributes them to cat. Callers that also feed the attribution
// profiler go through chargeAt: a guarded call inside this body would
// push charge past the inlining budget and cost every disabled-mode
// charge site a function call (the <2% disabled-cost contract,
// OBSERVABILITY.md).
func (v *VM) charge(cat Category, cycles float64) {
	v.eng.AdvanceClock(cycles)
	v.res.Cat[cat] += cycles
	v.cycles = v.eng.Now()
}

// attribute books already-elapsed machine time (from the dataflow
// replay) to cat.
func (v *VM) attribute(cat Category, delta float64) {
	v.res.Cat[cat] += delta
	v.cycles = v.eng.Now()
}

// sampleIfDue emits due startup-curve samples. This runs once per
// dispatched block and must stay within the inlining budget, which is
// why the timeline sampler lives in a separate check-plus-call in the
// Run loop rather than here.
func (v *VM) sampleIfDue() {
	for v.cycles >= v.nextSample {
		v.res.Samples = append(v.res.Samples, v.snapshot())
		v.nextSample *= v.Cfg.SampleGrowth
	}
}

// appendTimeline records every due timeline slice. Called only when a
// boundary has actually been crossed (rare — once per interval); the
// per-block disabled cost is the caller's single compare against the
// +Inf boundary.
func (v *VM) appendTimeline() {
	for v.cycles >= v.tlNext {
		// The slice is stamped at the nominal boundary, not v.cycles:
		// the grid stays regular however far one block overshoots.
		v.tlNext = v.tl.Append(v.timeSlice(v.tlNext))
	}
}

// timeSlice snapshots the cumulative counters and the code-cache
// occupancy into one timeline slice ending at end.
func (v *VM) timeSlice(end float64) obs.TimeSlice {
	return obs.TimeSlice{
		EndCycles:    end,
		Instrs:       v.res.Instrs,
		InterpInstrs: v.res.InterpInstrs,
		BBTInstrs:    v.res.BBTInstrs,
		SBTInstrs:    v.res.SBTInstrs,
		X86Instrs:    v.res.X86Instrs,
		VMMCycles:    v.res.Cat[CatVMM],
		XlateCycles:  v.res.Cat[CatBBTXlate] + v.res.Cat[CatSBTXlate],
		EmuCycles: v.res.Cat[CatBBTEmu] + v.res.Cat[CatSBTEmu] +
			v.res.Cat[CatX86Emu] + v.res.Cat[CatInterp],
		BBTUsed: v.bbtCache.Used(),
		SBTUsed: v.sbtCache.Used(),
	}
}

func (v *VM) snapshot() Sample {
	return Sample{
		Cycles:  v.cycles,
		Instrs:  v.res.Instrs,
		Cat:     v.res.Cat,
		XltBusy: float64(v.xlt.BusyCycles),
	}
}

// Run executes until maxInstrs architected instructions (cumulative over
// the VM's lifetime) have retired or the program halts. It may be called
// again with a larger budget to continue the same machine — e.g. after
// flushing the caches to study the code-cache-warm startup scenario.
func (v *VM) Run(maxInstrs uint64) (*Result, error) {
	if v.obs != nil {
		v.obsRunStart(maxInstrs)
	}
	for !v.halted && v.instrs < maxInstrs {
		t, cat, err := v.dispatch()
		if err != nil {
			return &v.res, err
		}
		if err := v.execute(t, cat); err != nil {
			return &v.res, err
		}
		v.sampleIfDue()
		if v.cycles >= v.tlNext {
			v.appendTimeline()
		}
	}
	v.res.Cycles = v.cycles
	v.res.Halted = v.halted
	v.res.XltInvocations = v.xlt.Invocations
	v.res.XltBusyCycles = v.xlt.BusyCycles
	if v.prof != nil {
		// Reconcile the attribution against the run total.
		v.res.Attrib = v.prof.Finish(v.res.Cycles)
	}
	if !v.Cfg.NoStartupSamples {
		v.res.Samples = append(v.res.Samples, v.snapshot())
	}
	if v.tl != nil {
		// Close the timeline with the run-end partial slice.
		v.tl.AppendFinal(v.timeSlice(v.cycles))
	}
	if v.obs != nil {
		v.obsRunEnd()
	}
	return &v.res, nil
}

// dispatch resolves the next unit of execution for v.pc. The fast path
// is direct-threaded: a chained exit carries a resolved next-translation
// pointer that is valid by construction — every event that could
// invalidate it (cache flush, supersede) severs the chain eagerly
// (codecache.Translation.Unchain) — so following it needs no Invalid
// flag or epoch re-validation, no strategy switch and no map probe.
// Only hotspot detection remains on the fast path, gated by the
// precomputed Profiled bit.
func (v *VM) dispatch() (*codecache.Translation, Category, error) {
	if v.prevT != nil {
		if c := v.prevT.Exits[v.prevExit].Chained; c != nil {
			if c.Profiled && v.det.RecordEntry(v.pc, c.NumX86) {
				if err := v.formSuperblock(v.pc); err != nil {
					return nil, 0, err
				}
				// c was just superseded; it still runs this one last
				// time (its chain was severed, so the next dispatch of
				// this PC resolves the superblock via the slow path).
			}
			return c, Category(c.DispCat), nil
		}
	}
	return v.dispatchSlow()
}

// adopt fills the owner-precomputed dispatch fields of a translation
// (fast-path category byte and hotspot-detection gate). Idempotent;
// runs on every slow-path dispatch so every translation that can ever
// become a chain target carries correct values.
func (v *VM) adopt(t *codecache.Translation) {
	t.DispCat = uint8(v.categoryOf(t))
	t.Profiled = v.Cfg.Strategy.UsesSBT() && t.Kind != codecache.KindSBT
}

// dispatchSlow resolves v.pc without a chain: jump-TLB, code-cache
// lookups or cold translation, then charges VMM costs, chains the
// previous exit and runs hotspot detection.
func (v *VM) dispatchSlow() (*codecache.Translation, Category, error) {
	cfg := &v.Cfg

	var t *codecache.Translation
	// Software jump-TLB: a direct-mapped array fronting the map
	// lookups of both code caches and the shadow table. It is a
	// host-side accelerator for the simulator itself — a hit pays
	// exactly the simulated dispatch cost a map hit would, so
	// simulated timing is unchanged; only host work is saved.
	if c := v.jtlb.Lookup(v.pc); c != nil && v.jtlbValid(c) {
		t = c
		v.res.JTLBHits++
	} else {
		v.res.JTLBMisses++
		// Lookup: optimized code first. On a miss, a pending warm-start
		// snapshot may hold the superblock — restoring it skips both the
		// hot-threshold wait and the optimizer (warm.go).
		if cfg.Strategy.UsesSBT() {
			if s := v.sbtCache.Lookup(v.pc); s != nil {
				t = s
			} else if v.warm != nil {
				t = v.warmFault(codecache.KindSBT, v.pc)
			}
		}
		if t == nil {
			var err error
			t, err = v.coldUnit()
			if err != nil {
				return nil, 0, err
			}
		}
		v.jtlb.Insert(v.pc, t)
	}
	v.adopt(t)
	if v.obs != nil {
		v.obsJTLB()
	}
	// Chain the previous direct exit to the found translation.
	if v.prevT != nil && !v.prevT.Shadow && !t.Shadow {
		e := &v.prevT.Exits[v.prevExit]
		if e.Kind == codecache.ExitFall || e.Kind == codecache.ExitTaken || e.Kind == codecache.ExitSide {
			v.cacheOf(t).Chain(v.prevT, v.prevExit, t)
			if v.obs != nil {
				v.obsChain(v.prevT, t)
			}
		}
	}

	cat := v.categoryOf(t)

	// VMM dispatch cost: only translated-code machines pay it; x86-mode
	// and interpreter transitions are folded into their per-instruction
	// costs. In VM.fe, crossings between x86-mode and translated code
	// are resolved by the hardware jump-TLB of the dual-mode frontend,
	// so transitions out of shadow blocks pay no software dispatch.
	fromShadow := v.prevT != nil && v.prevT.Shadow
	if !t.Shadow && (cfg.Strategy.UsesBBT() || t.Kind == codecache.KindSBT) &&
		!(cfg.Strategy == StratFE && fromShadow) {
		v.chargeAt(CatVMM, attrib.Chain, v.pc, cfg.DispatchCycles)
	}

	// Mode switches (VM.fe): crossing between x86-mode and native mode.
	// Chained dispatches never cross modes (chains link native-mode
	// translations only, and never lead out of a shadow block), so the
	// check lives on the slow path alone.
	if cfg.Strategy == StratFE {
		x86mode := cat == CatX86Emu
		if x86mode != v.inX86 {
			v.chargeAt(CatVMM, attrib.Chain, v.pc, cfg.ModeSwitchCycles)
			v.inX86 = x86mode
		}
	}

	// Hotspot detection on non-optimized code.
	if t.Profiled {
		if v.det.RecordEntry(v.pc, t.NumX86) {
			if err := v.formSuperblock(v.pc); err != nil {
				return nil, 0, err
			}
		}
	}
	return t, cat, nil
}

func (v *VM) categoryOf(t *codecache.Translation) Category {
	if t.Kind == codecache.KindSBT {
		return CatSBTEmu
	}
	switch v.Cfg.Strategy {
	case StratRef, StratFE:
		return CatX86Emu
	case StratInterp:
		return CatInterp
	case StratStaged3:
		if t.Shadow {
			return CatInterp
		}
		return CatBBTEmu
	default:
		return CatBBTEmu
	}
}

func (v *VM) cacheOf(t *codecache.Translation) *codecache.Cache {
	if t.Kind == codecache.KindSBT {
		return v.sbtCache
	}
	return v.bbtCache
}

// jtlbValid reports whether a jump-TLB hit for v.pc may be dispatched.
// A stale entry must never execute: superseded translations (Invalid),
// flushed cache epochs, evicted shadow blocks and interpreted blocks
// due for BBT promotion all force the slow path, which re-resolves and
// refills the entry.
func (v *VM) jtlbValid(c *codecache.Translation) bool {
	if c.Invalid {
		return false
	}
	if c.Shadow {
		if v.Cfg.Strategy == StratStaged3 && c.ExecCount >= uint64(v.Cfg.InterpToBBT) {
			return false // must promote to BBT via the slow path
		}
		return v.shadow.get(v.pc) == c // validates residency, touches the clock bit
	}
	if c.Kind == codecache.KindSBT {
		return c.Epoch == v.sbtCache.Epoch()
	}
	return c.Epoch == v.bbtCache.Epoch()
}

// shadowPut registers a shadow block, counting clock evictions and
// shooting down the jump-TLB entry of any victim.
func (v *VM) shadowPut(pc uint32, t *codecache.Translation) {
	if epc, evicted := v.shadow.put(pc, t); evicted {
		v.res.ShadowEvictions++
		v.jtlb.Evict(epc)
		if v.obs != nil {
			v.obsShadowEvict(epc)
		}
	}
}

// coldUnit produces the execution unit for untranslated code at v.pc
// according to the strategy.
func (v *VM) coldUnit() (*codecache.Translation, error) {
	cfg := &v.Cfg
	switch cfg.Strategy {
	case StratRef, StratFE, StratInterp:
		// x86-mode / interpretation: the "translation" is a shadow block
		// representing what the hardware decoders (or the interpreter's
		// dispatch loop) process; building it costs nothing.
		if t := v.shadow.get(v.pc); t != nil {
			return t, nil
		}
		t, err := v.newShadowBlock()
		if err != nil {
			return nil, err
		}
		v.shadowPut(v.pc, t)
		return t, nil

	case StratSoft, StratBE:
		if t := v.bbtCache.Lookup(v.pc); t != nil && !t.Invalid {
			return t, nil
		}
		if t := v.warmFault(codecache.KindBBT, v.pc); t != nil {
			return t, nil
		}
		return v.translateBBT()

	case StratStaged3:
		if t := v.bbtCache.Lookup(v.pc); t != nil && !t.Invalid {
			return t, nil
		}
		if t := v.warmFault(codecache.KindBBT, v.pc); t != nil {
			// Restoring skips the interpret-then-promote staging: drop any
			// interpreted shadow state the restored block supersedes.
			v.shadow.remove(v.pc)
			return t, nil
		}
		// Interpret first-touch code; promote to BBT once the block has
		// re-executed enough to repay translation.
		if t := v.shadow.get(v.pc); t != nil {
			if t.ExecCount < uint64(cfg.InterpToBBT) {
				return t, nil
			}
			v.shadow.remove(v.pc)
			return v.translateBBT()
		}
		t, err := v.newShadowBlock()
		if err != nil {
			return nil, err
		}
		v.shadowPut(v.pc, t)
		return t, nil
	}
	return nil, fmt.Errorf("vmm: unknown strategy %v", cfg.Strategy)
}

// newShadowBlock builds the shadow block for v.pc: translated into the
// reusable scratch, analyzed, and committed into the shadow arena.
func (v *VM) newShadowBlock() (*codecache.Translation, error) {
	t, err := v.bbtScratch.Translate(v.Mem, v.pc, v.Cfg.BBT)
	if err != nil {
		return nil, err
	}
	t.Shadow = true
	v.analyze(t)
	return v.shadowArena.Commit(t), nil
}

// analyze fills t's timing metadata through the VM's reusable scratch
// buffer. The commit that follows every analyze copies the metadata
// into arena storage, so the buffer is free again for the next
// translation.
func (v *VM) analyze(t *codecache.Translation) {
	t.Meta = v.metaBuf[:0]
	timing.AnalyzeWith(t, v.Cfg.Timing)
	v.metaBuf = t.Meta[:0]
}

// translateBBT runs the basic-block translator at v.pc, charging the
// per-instruction translation cost of the configuration.
func (v *VM) translateBBT() (*codecache.Translation, error) {
	cfg := &v.Cfg
	t, err := v.bbtScratch.Translate(v.Mem, v.pc, cfg.BBT)
	if err != nil {
		return nil, err
	}
	v.analyze(t)

	complex := 0
	for i := range t.Uops {
		if t.Uops[i].Op == fisa.UCALLOUT {
			complex++
		}
	}
	simple := t.NumX86 - complex

	var cost float64
	switch cfg.Strategy {
	case StratBE:
		// HAloop with the XLTx86 unit; complex instructions fall back to
		// software cracking (Flag_cmplx).
		cost = cfg.BBTCyclesPerInst*float64(simple) + cfg.BBTComplexCycles*float64(complex)
		v.bookXlt(uint32(t.NumX86), simple, complex)
		// Fsrc streaming buffer and direct code-cache writeback: no
		// data-cache pollution (§4.2).
	default:
		cost = cfg.BBTCyclesPerInst * float64(t.NumX86)
		// The software translator reads architected code through the
		// data cache and writes the translation through it as well.
		v.eng.Caches.Touch(t.EntryPC, t.X86Bytes, false)
	}
	v.chargeAt(CatBBTXlate, attrib.BBTTranslate, t.EntryPC, cost)

	t, flushed, err := v.bbtCache.Insert(t)
	if err != nil {
		return nil, err
	}
	if flushed {
		v.onBBTFlush()
	}
	if cfg.Strategy == StratSoft {
		v.eng.Caches.Touch(t.Addr, t.Size, true)
	}
	v.res.BBTTranslations++
	v.res.BBTX86Translated += uint64(t.NumX86)
	if v.obs != nil {
		v.obsBBTTranslate(t)
	}
	return t, nil
}

// formSuperblock translates and optimizes the hot region entered at pc.
func (v *VM) formSuperblock(pc uint32) error {
	cfg := &v.Cfg
	t, err := v.sbtFormer.Form(v.Mem, pc, v.edges, cfg.SBT)
	if err != nil {
		return err
	}
	v.analyze(t)
	v.chargeAt(CatSBTXlate, attrib.SBTForm, pc, cfg.SBTCyclesPerInst*float64(t.NumX86))
	// The optimizer reads the architected code and writes the superblock
	// through the data cache (it is software in every configuration).
	v.eng.Caches.Touch(pc, t.X86Bytes, false)

	t, flushed, err := v.sbtCache.Insert(t)
	if err != nil {
		return err
	}
	if flushed {
		v.onSBTFlush()
	}
	v.eng.Caches.Touch(t.Addr, t.Size, true)
	if v.obs != nil {
		v.obsSBTPromote(t)
	}

	// Retire the BBT block (or shadow profile state) it supersedes.
	// Severing its inbound chains is what retires it on the threaded
	// dispatch path: the next transition that used to chain into it
	// falls back to the slow path and resolves the superblock.
	if old := v.bbtCache.Lookup(pc); old != nil && !old.Invalid {
		old.Invalid = true
		old.Unchain()
		v.invalidated = append(v.invalidated, old)
		if v.obs != nil {
			v.obsUnchain(old)
		}
	}
	// Supersede the jump-TLB mapping: the next dispatch of pc must land
	// in the superblock, never a stale BBT or shadow entry.
	v.jtlb.Insert(pc, t)
	v.res.SBTTranslations++
	v.res.SBTX86Translated += uint64(t.NumX86)
	return nil
}

// onBBTFlush handles a basic-block code cache flush: chains are severed
// eagerly by the flush itself; profiling state is kept (the blocks
// remain warm in the detector, as with a real software counter table in
// VMM memory).
func (v *VM) onBBTFlush() {
	v.invalidated = v.invalidated[:0]
	// The flush recycled its translations' storage; a stale jump-TLB
	// entry could therefore pass the epoch check while pointing at a
	// recycled slot that now holds a different current-epoch
	// translation. Evict the flushed kind eagerly; hit/miss counts are
	// unchanged (a stale entry was a miss before, a nil entry is a miss
	// now), and surviving shadow/SBT entries keep their future hits.
	v.jtlb.EvictKind(codecache.KindBBT)
	// The previous translation died with the flush: drop the reference
	// so the dispatch loop cannot read exits of a dead (and, with an
	// arena, soon-to-be-recycled) translation. Its chains are already
	// severed, so this changes no dispatch decision — the next dispatch
	// took the slow path either way.
	if v.prevT != nil && !v.prevT.Shadow && v.prevT.Kind != codecache.KindSBT {
		v.prevT = nil
	}
	if v.obs != nil {
		v.obsFlush(v.bbtCache, 0)
	}
}

// onSBTFlush handles a superblock cache flush: superseded BBT blocks
// become live again and regions must be re-detected before
// re-optimizing.
func (v *VM) onSBTFlush() {
	v.jtlb.EvictKind(codecache.KindSBT) // see onBBTFlush
	for _, t := range v.invalidated {
		t.Invalid = false
	}
	v.invalidated = v.invalidated[:0]
	v.det = newDetector(&v.Cfg)
	if v.prevT != nil && v.prevT.Kind == codecache.KindSBT {
		v.prevT = nil // see onBBTFlush
	}
	if v.obs != nil {
		v.obsFlush(v.sbtCache, 1)
	}
}

// execute runs one translation functionally and charges its timing:
// block start (mode + fetch), the executed micro-op ranges with their
// memory and branch events, callout serializations, and the closing
// attribution/statistics.
func (v *VM) execute(t *codecache.Translation, cat Category) error {
	if cat != CatInterp && t.FastExec {
		// Eligible translations run through the fused execute+timing
		// pass: one walk does the functional work and the dataflow
		// charge (timing.Engine.ExecBlock), which is bit-identical to
		// the split path below — see ExecBlock's equivalence argument.
		// Interpreted blocks keep the split path: their timing is
		// per-instruction software cost, not a dataflow replay.
		return v.executeFused(t, cat)
	}
	// The probes feed the timing engine directly during the pass.
	env := fisa.Env{St: &v.nst, Mem: v.Mem, Probe: v.eng}
	if cat != CatInterp {
		env.Branch = v
	}

	v.blockStart(t, cat)

	var total, st fisa.ExecStats
	start := 0
	var exitIdx int
	for {
		kind, idx, err := fisa.Exec(&env, t.Uops, start, &st)
		if err != nil {
			return fmt.Errorf("vmm: executing %v block at %#x: %w", t.Kind, t.EntryPC, err)
		}
		total.Uops += st.Uops
		total.Entities += st.Entities
		total.Loads += st.Loads
		total.Stores += st.Stores
		total.Boundaries += st.Boundaries

		// Dataflow charge over the executed (linear) ranges.
		if cat == CatInterp {
			v.segInterp(st.Boundaries)
		} else if st.TakenBranchIdx >= 0 {
			v.eng.ChargeBlock(t, start, st.TakenBranchIdx)
			v.eng.ChargeBlock(t, idx, idx)
		} else {
			v.eng.ChargeBlock(t, start, idx)
		}

		if kind == fisa.StopCallout {
			if err := v.calloutExec(t.Uops[idx].X86PC); err != nil {
				return err
			}
			v.callout(cat != CatInterp && cat != CatX86Emu)
			start = idx + 1
			continue
		}
		exitIdx = int(t.Uops[idx].Imm)
		break
	}

	v.blockEnd(cat, total.Boundaries, total.Uops, uint64(total.Entities))
	v.instrs += uint64(total.Boundaries)
	t.ExecCount++

	return v.resolveExit(t, exitIdx, cat)
}

// executeFused runs one translation through the fused execute+timing
// pass: the same block-start fetch, leg loop, callout handling,
// block-end attribution and exit resolution as the split path of
// execute, with fisa.Exec + ChargeBlock replaced by the single-walk
// timing.Engine.ExecBlock.
func (v *VM) executeFused(t *codecache.Translation, cat Category) error {
	v.blockStart(t, cat)

	var total, st fisa.ExecStats
	start := 0
	var exitIdx int
	for {
		kind, idx, err := v.eng.ExecBlock(&v.nst, v.Mem, t, start, &st)
		if err != nil {
			return fmt.Errorf("vmm: executing %v block at %#x: %w", t.Kind, t.EntryPC, err)
		}
		total.Uops += st.Uops
		total.Entities += st.Entities
		total.Loads += st.Loads
		total.Stores += st.Stores
		total.Boundaries += st.Boundaries

		if kind == fisa.StopCallout {
			if err := v.calloutExec(t.Uops[idx].X86PC); err != nil {
				return err
			}
			v.callout(cat != CatX86Emu) // cat != CatInterp by the fast-path gate
			start = idx + 1
			continue
		}
		exitIdx = int(t.Uops[idx].Imm)
		break
	}

	v.blockEnd(cat, total.Boundaries, total.Uops, uint64(total.Entities))
	v.instrs += uint64(total.Boundaries)
	t.ExecCount++

	return v.resolveExit(t, exitIdx, cat)
}

// calloutExec executes one complex architected instruction via the
// interpreter with precise state (Fig. 1b's precise-state mapping).
func (v *VM) calloutExec(pc uint32) error {
	v.nst.StoreArch(&v.arch)
	v.arch.EIP = pc
	v.itp.Halted = false
	if _, err := v.itp.Step(); err != nil {
		return fmt.Errorf("vmm: callout at %#x: %w", pc, err)
	}
	v.nst.LoadArch(&v.arch)
	return nil
}

// interpFetch charges the interpreter's reads of architected code bytes
// (data-side accesses).
func (v *VM) interpFetch(t *codecache.Translation) float64 {
	const line = 64
	stall := 0.0
	first := t.EntryPC &^ (line - 1)
	last := (t.EntryPC + uint32(t.X86Bytes)) &^ (line - 1)
	for a := first; ; a += line {
		stall += float64(v.eng.Caches.DataPenalty(a, false))
		if a >= last {
			break
		}
	}
	return stall
}

// resolveExit consumes the translation exit, performing target
// resolution, control-transfer prediction and edge profiling.
func (v *VM) resolveExit(t *codecache.Translation, exitIdx int, cat Category) error {
	cfg := &v.Cfg
	e := &t.Exits[exitIdx]
	e.Count++

	var next uint32
	switch e.Kind {
	case codecache.ExitHalt:
		v.halted = true
		v.prevT = nil
		return nil

	case codecache.ExitIndirect:
		next = v.nst.R[e.TargetReg]
		// Software indirect-target lookup for translated code. Returns
		// are exempt: the co-designed pipeline predicts them into the
		// code cache with a dual-address return address stack (the
		// hardware support for control transfers of Kim & Smith, cited
		// as the design's mechanism), so only computed jumps and
		// indirect calls take the software hash path.
		v.exitInd(cat, e, next, !t.Shadow && cat != CatInterp && !e.Ret)

	default: // Fall, Taken, Side — static target
		next = e.Target
		if e.Call {
			v.eng.BranchCycles(timing.CTICall, e.BranchPC, next, e.ReturnPC, true)
		}
		// Conditional-branch prediction was handled by the UBR probe
		// during execution; direct jumps/calls resolve in decode.
		if cfg.Strategy.UsesSBT() && t.Kind != codecache.KindSBT && e.BranchPC != 0 {
			v.edges.Record(e.BranchPC, next)
		}
	}

	v.pc = next
	v.prevT, v.prevExit = t, exitIdx
	return nil
}
