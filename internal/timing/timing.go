// Package timing implements the superscalar timing model shared by all
// machine configurations (Table 2). It is a *persistent dataflow
// (scoreboard) model*: a finite-window out-of-order approximation in
// which
//
//   - every issue entity (micro-op, or fused macro-op pair — one slot)
//     consumes 1/width of issue bandwidth,
//   - an entity issues no earlier than its source operands' ready times
//     (tracked continuously across basic-block boundaries, so
//     independent work from different blocks overlaps, as in a real
//     out-of-order core),
//   - a reorder-window ring limits how far issue can run ahead of
//     retirement, which makes memory-level parallelism an emergent
//     property: independent cache misses overlap within the window,
//     dependent ones serialize;
//   - loads carry their true hierarchy latency (L1/L2/memory from the
//     simulated caches), branch mispredictions insert
//     frontend-depth-dependent bubbles, instruction fetch stalls push
//     the bandwidth clock directly.
//
// Macro-op fusion benefits emerge rather than being asserted: a fused
// pair occupies one issue slot (bandwidth) and presents the pipelined
// two-stage ALU latency to external consumers.
//
// Software activity (translation, interpretation, VMM dispatch) advances
// the same clock, so per-category cycle accounting (Fig. 10) is exact by
// construction.
package timing

import (
	"codesignvm/internal/bpred"
	"codesignvm/internal/cache"
	"codesignvm/internal/codecache"
	"codesignvm/internal/fisa"
)

// Params are the pipeline parameters of one machine configuration.
type Params struct {
	Width             int     // superscalar width (3, Table 2)
	MispredictPenalty int     // cycles; depends on frontend depth
	Window            int     // reorder window in issue entities (ROB, Table 2)
	LoadLatency       int     // L1D-hit load-to-use latency (cycles)
	MulLatency        int     // integer multiply latency
	DivLatency        int     // microcoded divide latency
	PairLatency       int     // fused macro-op latency on the pipelined 2-stage ALU
	MLP               float64 // retained for reporting; overlap is emergent
}

// DefaultParams matches the Table 2 native pipeline.
var DefaultParams = Params{
	Width:             3,
	MispredictPenalty: 12,
	Window:            128,
	LoadLatency:       3,
	MulLatency:        3,
	DivLatency:        12,
	PairLatency:       2,
	MLP:               4,
}

// Engine charges cycles for dynamic execution events. It owns the cache
// hierarchy, branch predictor and the persistent dataflow state of one
// simulated machine.
//
// The engine is single-goroutine state: every entry point (ChargeBlock,
// OnLoad/OnStore, NoteBranch, AdvanceClock, ...) mutates the clock,
// predictor tables or cache LRU order. The VM drives it inline from
// the dispatch loop, in execution order.
type Engine struct {
	P      Params
	Caches *cache.Hierarchy
	Pred   *bpred.Predictor

	// Dataflow state (absolute cycles). regReady is sized for the full
	// uint8 register namespace rather than fisa.NumRegs: indexing it
	// with a fisa.Reg then needs no bounds check, which matters in the
	// block-replay loop (the simulator's hottest path).
	clock      float64 // issue-bandwidth frontier == machine time
	invWidth   float64 // 1/Width, hoisted out of the per-entity issue step
	regReady   [256]float64
	flagReady  float64
	ring       []float64 // retire times of the last Window entities
	ringIdx    int
	lastRetire float64
	// brStall accumulates the clock advance caused by branch
	// misprediction bubbles (the resume-past-clock part only), so the
	// attribution profiler can split bpred stalls out of block spans.
	brStall float64

	// Event queues filled during functional execution and consumed by
	// the timing replay, in program order. Consumption advances the head
	// indices instead of re-slicing so the backing arrays are reused
	// forever once warm (the hot loop does no allocation).
	loadLat  []float64 // full load-to-use latencies (incl. misses)
	brPen    []float64 // misprediction bubbles per executed UBR (0 = hit)
	loadHead int
	brHead   int
}

// NewEngine builds a timing engine with the Table 2 memory system.
func NewEngine(p Params) *Engine {
	if p.Window <= 0 {
		p.Window = DefaultParams.Window
	}
	return &Engine{
		P:        p,
		Caches:   cache.Table2(),
		Pred:     bpred.New(bpred.DefaultConfig),
		ring:     make([]float64, p.Window),
		invWidth: 1 / float64(p.Width),
	}
}

// Now returns the machine time in cycles.
func (e *Engine) Now() float64 { return e.clock }

// BranchStalls returns the cumulative cycles the clock was pushed
// forward by branch misprediction bubbles. Deltas of this counter
// across a block span isolate the span's bpred-stall share.
func (e *Engine) BranchStalls() float64 { return e.brStall }

// AdvanceClock consumes cycles of software activity (translation,
// interpretation, VMM work): the pipeline is busy running VMM code.
func (e *Engine) AdvanceClock(c float64) {
	if c > 0 {
		e.clock += c
	}
}

// Analyze precomputes the issue shape of a translation (entities, fused
// pairs, static dependence depth) for statistics and reporting.
func (e *Engine) Analyze(t *codecache.Translation) { AnalyzeWith(t, e.P) }

// OnLoad implements fisa.MemProbe: the load's true latency through the
// hierarchy is queued for the timing replay.
func (e *Engine) OnLoad(addr uint32, size uint8) {
	pen := e.Caches.DataPenalty(addr, false)
	e.loadLat = append(e.loadLat, float64(e.P.LoadLatency+pen))
}

// OnStore implements fisa.MemProbe (write-allocate, buffered).
func (e *Engine) OnStore(addr uint32, size uint8) {
	e.Caches.DataPenalty(addr, true)
}

// NoteBranch queues the misprediction bubble (0 when predicted) of an
// executed conditional branch, in program order.
func (e *Engine) NoteBranch(penalty float64) {
	e.brPen = append(e.brPen, penalty)
}

// DrainQueues discards queued events and returns the total load stall
// beyond the L1 latency (used by the interpreter path, which pays
// per-instruction software costs plus its real cache misses).
func (e *Engine) DrainQueues() float64 {
	stall := 0.0
	for _, l := range e.loadLat[e.loadHead:] {
		if extra := l - float64(e.P.LoadLatency); extra > 0 {
			stall += extra
		}
	}
	e.loadLat = e.loadLat[:0]
	e.brPen = e.brPen[:0]
	e.loadHead = 0
	e.brHead = 0
	return stall
}

// popLoad consumes the next queued load latency, or the L1 latency when
// the queue is empty (defensive; replays always match executions).
func (e *Engine) popLoad() float64 {
	if e.loadHead < len(e.loadLat) {
		l := e.loadLat[e.loadHead]
		e.loadHead++
		if e.loadHead == len(e.loadLat) {
			e.loadLat = e.loadLat[:0]
			e.loadHead = 0
		}
		return l
	}
	return float64(e.P.LoadLatency)
}

// popBr consumes the next queued branch bubble (0 when none queued).
func (e *Engine) popBr() float64 {
	if e.brHead < len(e.brPen) {
		p := e.brPen[e.brHead]
		e.brHead++
		if e.brHead == len(e.brPen) {
			e.brPen = e.brPen[:0]
			e.brHead = 0
		}
		return p
	}
	return 0
}

// issueEntity pushes one issue entity through the dataflow model.
// srcMax is the max ready time of its sources; lat its result latency.
// It returns the completion time.
func (e *Engine) issueEntity(srcMax, lat float64) float64 {
	slot := e.clock
	if w := e.ring[e.ringIdx]; w > slot {
		slot = w // window full: wait for the oldest entity to retire
	}
	issue := slot
	if srcMax > issue {
		issue = srcMax
	}
	complete := issue + lat
	retire := complete
	if e.lastRetire > retire {
		retire = e.lastRetire
	}
	e.lastRetire = retire
	e.ring[e.ringIdx] = retire
	e.ringIdx++
	if e.ringIdx == len(e.ring) {
		e.ringIdx = 0
	}
	e.clock = slot + e.invWidth
	return complete
}

// ChargeRange replays the executed micro-ops uops[lo..hi] (inclusive)
// through the dataflow model, consuming the queued load latencies and
// branch outcomes. The caller derives the executed (linear) ranges from
// the functional execution.
//
// This is the reference replay, deriving entity shape (sources, fusion,
// latencies) from the micro-ops on every call. ChargeBlock is the
// equivalent fast path over the precomputed per-translation metadata;
// the two must stay in lockstep (TestChargeBlockMatchesChargeRange).
func (e *Engine) ChargeRange(uops []fisa.MicroOp, lo, hi int) {
	var srcBuf [3]fisa.Reg
	for i := lo; i <= hi && i < len(uops); i++ {
		u := &uops[i]

		// A fused pair is one issue entity.
		var pair *fisa.MicroOp
		if u.Fused && i+1 <= hi && i+1 < len(uops) {
			pair = &uops[i+1]
		}

		src := 0.0
		gather := func(m *fisa.MicroOp) {
			for _, s := range m.Sources(srcBuf[:0]) {
				if pair != nil && m == pair && u.HasDst() && s == u.Dst {
					continue // collapsed intra-pair dependence
				}
				if r := e.regReady[s]; r > src {
					src = r
				}
			}
			if readsWritesFlags(m).reads && e.flagReady > src {
				src = e.flagReady
			}
		}
		gather(u)
		if pair != nil {
			gather(pair)
		}

		lat := 1.0
		if pair != nil {
			lat = float64(e.P.PairLatency)
		}
		switch {
		case u.Op == fisa.UMUL || u.Op == fisa.UMULHU || u.Op == fisa.UMULHS:
			lat = float64(e.P.MulLatency)
		case u.Op == fisa.UDIVQ || u.Op == fisa.UDIVR || u.Op == fisa.UIDIVQ || u.Op == fisa.UIDIVR:
			lat = float64(e.P.DivLatency)
		}
		consumeLoad := func(m *fisa.MicroOp) {
			if m.IsLoad() {
				lat = e.popLoad()
			}
		}
		consumeLoad(u)
		if pair != nil {
			consumeLoad(pair)
		}

		complete := e.issueEntity(src, lat)

		apply := func(m *fisa.MicroOp) {
			if m.HasDst() {
				e.regReady[m.Dst] = complete
			}
			if readsWritesFlags(m).writes {
				e.flagReady = complete
			}
		}
		apply(u)
		if pair != nil {
			apply(pair)
		}

		// Branch resolution bubbles.
		if u.Op == fisa.UBR || (pair != nil && pair.Op == fisa.UBR) {
			pen := e.popBr()
			if pen > 0 {
				// Fetch resumes after the branch resolves plus the
				// frontend refill.
				resume := complete + pen
				if resume > e.clock {
					e.brStall += resume - e.clock
					e.clock = resume
				}
			}
		}

		if pair != nil {
			i++ // the tail was consumed with the head
		}
	}
}

// ChargeBlock replays t.Uops[lo..hi] (inclusive) like ChargeRange, but
// walks the translation's precomputed entity metadata instead of
// re-deriving sources, fusion and latencies per dynamic execution. It
// does no allocation. Falls back to ChargeRange for translations that
// were never analyzed.
func (e *Engine) ChargeBlock(t *codecache.Translation, lo, hi int) {
	uops := t.Uops
	meta := t.Meta
	if len(meta) != len(uops) {
		e.ChargeRange(uops, lo, hi)
		return
	}
	// The issue step (issueEntity) is open-coded here with the dataflow
	// state held in locals: this loop is the simulator's single hottest
	// path, and keeping clock/ring cursor/retire frontier/flag frontier
	// in registers across the block is worth ~10% of total simulation
	// time. regReady is accessed through a pointer local and indexed by
	// uint8 register numbers (no bounds checks — the array spans the
	// whole namespace); meta is re-sliced to the micro-op count so the
	// loop bound proves the indexing. The arithmetic is identical,
	// operation for operation, to issueEntity;
	// TestChargeBlockMatchesChargeRange pins the two together.
	meta = meta[:len(uops)]
	clock, lastRetire, brStall := e.clock, e.lastRetire, e.brStall
	ring, ringIdx := e.ring, e.ringIdx
	invWidth := e.invWidth
	flagReady := e.flagReady
	regReady := &e.regReady
	for i := lo; i <= hi && i < len(meta); {
		m := &meta[i]
		if i+1 > hi && m.Step == 2 {
			// The range cuts a fused pair after its head: the head
			// executes as a standalone entity (rare; mirrors the
			// i+1 <= hi pairing guard of the reference replay).
			sm := entityMeta(&uops[i], nil, e.P)
			m = &sm
		}

		src := 0.0
		for k := uint8(0); k < m.NSrc; k++ {
			if r := regReady[m.Srcs[k]]; r > src {
				src = r
			}
		}
		if m.Bits&codecache.MetaReadsFlags != 0 && flagReady > src {
			src = flagReady
		}

		lat := m.Lat
		if m.Bits&codecache.MetaHasLoad != 0 {
			lat = e.popLoad()
		}

		// issueEntity, inlined.
		slot := clock
		if w := ring[ringIdx]; w > slot {
			slot = w
		}
		issue := slot
		if src > issue {
			issue = src
		}
		complete := issue + lat
		retire := complete
		if lastRetire > retire {
			retire = lastRetire
		}
		lastRetire = retire
		ring[ringIdx] = retire
		ringIdx++
		if ringIdx == len(ring) {
			ringIdx = 0
		}
		clock = slot + invWidth

		if m.Bits&codecache.MetaHasDst1 != 0 {
			regReady[m.Dst1] = complete
		}
		if m.Bits&codecache.MetaHasDst2 != 0 {
			regReady[m.Dst2] = complete
		}
		if m.Bits&codecache.MetaWritesFlags != 0 {
			flagReady = complete
		}

		if m.Bits&codecache.MetaIsBranch != 0 {
			if pen := e.popBr(); pen > 0 {
				resume := complete + pen
				if resume > clock {
					brStall += resume - clock
					clock = resume
				}
			}
		}

		i += int(m.Step)
	}
	e.clock, e.lastRetire, e.ringIdx, e.flagReady, e.brStall = clock, lastRetire, ringIdx, flagReady, brStall
}

// entityMeta computes the issue-entity shape for the micro-op u (paired
// with pair when non-nil) under parameters p. It encodes exactly the
// per-entity work of ChargeRange: filtered sources, flag behaviour,
// base latency, load/branch event consumption and destinations.
func entityMeta(u, pair *fisa.MicroOp, p Params) codecache.UopMeta {
	var m codecache.UopMeta
	m.Step = 1
	var srcBuf [3]fisa.Reg
	add := func(mo *fisa.MicroOp) {
		for _, s := range mo.Sources(srcBuf[:0]) {
			if pair != nil && mo == pair && u.HasDst() && s == u.Dst {
				continue // collapsed intra-pair dependence
			}
			m.Srcs[m.NSrc] = s
			m.NSrc++
		}
		fe := readsWritesFlags(mo)
		if fe.reads {
			m.Bits |= codecache.MetaReadsFlags
		}
		if fe.writes {
			m.Bits |= codecache.MetaWritesFlags
		}
	}
	add(u)
	if pair != nil {
		m.Step = 2
		add(pair)
	}

	lat := 1.0
	if pair != nil {
		lat = float64(p.PairLatency)
	}
	switch {
	case u.Op == fisa.UMUL || u.Op == fisa.UMULHU || u.Op == fisa.UMULHS:
		lat = float64(p.MulLatency)
	case u.Op == fisa.UDIVQ || u.Op == fisa.UDIVR || u.Op == fisa.UIDIVQ || u.Op == fisa.UIDIVR:
		lat = float64(p.DivLatency)
	}
	m.Lat = lat

	if u.IsLoad() || (pair != nil && pair.IsLoad()) {
		m.Bits |= codecache.MetaHasLoad
	}
	if u.HasDst() {
		m.Bits |= codecache.MetaHasDst1
		m.Dst1 = u.Dst
	}
	if pair != nil && pair.HasDst() {
		m.Bits |= codecache.MetaHasDst2
		m.Dst2 = pair.Dst
	}
	if u.Op == fisa.UBR || (pair != nil && pair.Op == fisa.UBR) {
		m.Bits |= codecache.MetaIsBranch
	}
	return m
}

// Serialize models a full pipeline drain: issue stops until everything
// in flight retires.
func (e *Engine) Serialize() {
	if e.lastRetire > e.clock {
		e.clock = e.lastRetire
	}
}

// AnalyzeWith computes the static issue shape under explicit parameters
// (entities, fused pairs, dependence depth, cycles-per-entity bound).
// The dynamic model does not use CPE; it is kept for reporting and for
// the analytical model package.
func AnalyzeWith(t *codecache.Translation, p Params) {
	var regLevel [fisa.NumRegs]int
	flagLevel := 0
	depth := 0
	entities := 0
	pairs := 0

	var srcBuf [3]fisa.Reg
	uops := t.Uops
	for i := 0; i < len(uops); i++ {
		u := &uops[i]
		entities++

		var pair *fisa.MicroOp
		if u.Fused && i+1 < len(uops) {
			pair = &uops[i+1]
			pairs++
		}

		ready := 0
		consider := func(m *fisa.MicroOp) {
			for _, s := range m.Sources(srcBuf[:0]) {
				if pair != nil && m == pair && u.HasDst() && s == u.Dst {
					continue
				}
				if int(s) < len(regLevel) && regLevel[s] > ready {
					ready = regLevel[s]
				}
			}
			fe := readsWritesFlags(m)
			if fe.reads && flagLevel > ready {
				ready = flagLevel
			}
		}
		consider(u)
		if pair != nil {
			consider(pair)
		}

		lat := 1
		if pair != nil {
			lat = p.PairLatency
		}
		if u.IsLoad() || (pair != nil && pair.IsLoad()) {
			lat = p.LoadLatency
		}
		if u.Op == fisa.UMUL || (pair != nil && pair.Op == fisa.UMUL) {
			lat = p.MulLatency
		}
		switch u.Op {
		case fisa.UDIVQ, fisa.UDIVR, fisa.UIDIVQ, fisa.UIDIVR:
			lat = p.DivLatency
		}
		done := ready + lat
		if done > depth {
			depth = done
		}

		apply := func(m *fisa.MicroOp) {
			if m.HasDst() {
				regLevel[m.Dst] = done
			}
			if readsWritesFlags(m).writes {
				flagLevel = done
			}
		}
		apply(u)
		if pair != nil {
			apply(pair)
			i++
		}
	}

	// Fill the per-micro-op entity metadata consumed by ChargeBlock.
	// Every index gets an entry — pair tails too, describing the tail as
	// a standalone entity, which is what a replay entering mid-pair runs.
	if cap(t.Meta) >= len(uops) {
		t.Meta = t.Meta[:len(uops)]
	} else {
		t.Meta = make([]codecache.UopMeta, len(uops))
	}
	fast := true
	for i := range uops {
		u := &uops[i]
		if u.Op == fisa.UJMP {
			// An internal jump would let execution revisit micro-ops, so
			// the executed set would no longer equal the charged linear
			// ranges; such translations take the split execute-then-replay
			// path. Translators emit none today.
			fast = false
		}
		var pair *fisa.MicroOp
		if u.Fused && i+1 < len(uops) {
			pair = &uops[i+1]
		}
		t.Meta[i] = entityMeta(u, pair, p)
	}
	t.FastExec = fast

	t.Entities = entities
	t.FusedPairs = pairs
	t.Depth = depth
	widthBound := float64(entities) / float64(p.Width)
	bound := widthBound
	if float64(depth) > bound {
		bound = float64(depth)
	}
	if entities > 0 {
		t.CPE = bound / float64(entities)
	} else {
		t.CPE = 1
	}
}

type flagRW struct{ reads, writes bool }

func readsWritesFlags(u *fisa.MicroOp) flagRW {
	switch u.Op {
	case fisa.UCMP, fisa.UCMPI, fisa.UTEST, fisa.UTESTI:
		return flagRW{writes: true}
	case fisa.UADC, fisa.USBB:
		return flagRW{reads: true, writes: u.SetF}
	case fisa.UINC, fisa.UDEC, fisa.USHL, fisa.USHR, fisa.USAR,
		fisa.UROL, fisa.UROR, fisa.UROLI, fisa.URORI:
		return flagRW{reads: u.SetF, writes: u.SetF}
	case fisa.UBR, fisa.USETC, fisa.UCMOV:
		return flagRW{reads: true}
	case fisa.UCALLOUT:
		return flagRW{reads: true, writes: true}
	}
	return flagRW{writes: u.SetF}
}

// FetchCycles charges the instruction fetch of size bytes at addr and
// returns the stall cycles. The first missing line pays the full
// hierarchy penalty; later lines of the same block stream behind it
// (pipelined refills at a quarter of the full penalty).
func (e *Engine) FetchCycles(addr uint32, size int) float64 {
	if size <= 0 {
		size = 1
	}
	const lineSize = 64
	first := addr &^ (lineSize - 1)
	last := (addr + uint32(size) - 1) &^ (lineSize - 1)
	if first == last {
		// Single-line fetch: the overwhelmingly common case for basic
		// blocks; skip the streaming loop.
		return float64(e.Caches.FetchPenalty(first))
	}
	total := 0.0
	firstLine := true
	for a := first; ; a += lineSize {
		pen := e.Caches.FetchPenalty(a)
		if pen > 0 {
			if firstLine {
				total += float64(pen)
			} else {
				total += float64(pen) / 4 // streamed refill
			}
		}
		firstLine = false
		if a == last {
			break
		}
	}
	return total
}

// CTIKind classifies a dynamic control transfer for prediction.
type CTIKind uint8

// Control-transfer kinds.
const (
	CTICond     CTIKind = iota
	CTIJump             // direct unconditional
	CTICall             // direct call
	CTIIndirect         // indirect jump or call
	CTIRet
)

// BranchCycles records a dynamic control transfer with the predictor and
// returns the misprediction stall (0 when predicted correctly).
// returnPC is the fall-through address (pushed for calls).
func (e *Engine) BranchCycles(kind CTIKind, pc, target, returnPC uint32, taken bool) float64 {
	pen := 0.0
	switch kind {
	case CTICond:
		if e.Pred.Cond(pc, taken) {
			pen = float64(e.P.MispredictPenalty)
		}
	case CTIJump:
		// Direct targets resolve in decode; no penalty in steady state.
	case CTICall:
		e.Pred.Call(returnPC)
	case CTIIndirect:
		if e.Pred.Indirect(pc, target) {
			pen = float64(e.P.MispredictPenalty)
		}
	case CTIRet:
		if e.Pred.Return(target) {
			pen = float64(e.P.MispredictPenalty)
		}
	}
	return pen
}

// SerializeCycles is the bubble of a pipeline drain (mode switches,
// complex-instruction callouts).
func (e *Engine) SerializeCycles() float64 {
	return float64(e.P.MispredictPenalty)
}
