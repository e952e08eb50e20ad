package vmm

import (
	"codesignvm/internal/codecache"
	"codesignvm/internal/obs/attrib"
	"codesignvm/internal/timing"
)

// acatExec maps a block's dispatch category to the attribution category
// its execution span is charged to (obs/attrib taxonomy). Translation
// work, chaining, restore traffic and the stall split-outs have their
// own categories and are charged at their own sites.
var acatExec = [NumCategories]attrib.Category{
	CatBBTXlate: attrib.BBTTranslate,
	CatSBTXlate: attrib.SBTForm,
	CatBBTEmu:   attrib.BBTExec,
	CatSBTEmu:   attrib.SBTExec,
	CatX86Emu:   attrib.X86Exec,
	CatInterp:   attrib.Interpret,
	CatVMM:      attrib.Chain,
}

// The timing methods. The Run loop calls them inline, on the same
// goroutine as functional execution, in exact trace order: block start,
// the executed micro-op ranges, callouts, block end, exit resolution.
// No functional decision reads timing state — hotspot detection counts
// entries, cache flushes trigger on code-cache occupancy, branch
// directions come from architected flags — so the timing engine is a
// pure observer of the functional execution.

// bookXlt books XLTx86 activity for one VM.be block translation.
func (v *VM) bookXlt(numX86 uint32, simple, complexN int) {
	v.xlt.Invocations += uint64(numX86)
	v.xlt.BusyCycles += uint64(v.xlt.Latency * simple)
	v.xlt.ComplexFallbacks += uint64(complexN)
}

// blockStart opens one translation execution: frontend mode, the
// attribution span start, and the instruction fetch.
func (v *VM) blockStart(t *codecache.Translation, cat Category) {
	v.setMode(cat == CatX86Emu)
	v.spanStart = v.eng.Now()
	var fetch float64
	switch cat {
	case CatInterp:
		fetch = v.interpFetch(t)
	case CatX86Emu:
		fetch = v.eng.FetchCycles(t.EntryPC, t.X86Bytes)
	default:
		fetch = v.eng.FetchCycles(t.Addr, t.Size)
	}
	v.eng.AdvanceClock(fetch)
	if v.prof != nil {
		v.prof.SpanOpen(t.EntryPC, fetch, v.eng.BranchStalls())
	}
}

// segInterp charges an interpreted segment of n architected
// instructions plus the queued load stalls. The queued-stall share is
// split out to the profiler as dmiss-stall cycles.
func (v *VM) segInterp(n int) {
	stall := v.eng.DrainQueues()
	v.eng.AdvanceClock(v.Cfg.InterpCyclesPerInst*float64(n) + stall)
	if v.prof != nil {
		v.prof.SpanDMiss(stall)
	}
}

// callout serializes the pipeline around a complex-instruction callout.
func (v *VM) callout(chargeCost bool) {
	v.eng.Serialize()
	if chargeCost {
		v.eng.AdvanceClock(v.Cfg.CalloutCycles)
	}
	v.res.Callouts++
}

// blockEnd closes the block: profiling cost, decoder activity, span
// attribution and retirement statistics.
func (v *VM) blockEnd(cat Category, boundaries, uops int, entities uint64) {
	if cat == CatBBTEmu {
		v.eng.AdvanceClock(v.Cfg.ProfilingCycles) // embedded software profiling
	}
	if cat == CatX86Emu {
		v.dmd.OnX86Mode(boundaries)
		v.res.X86ModeCycles += v.eng.Now() - v.spanStart
	} else if cat != CatInterp {
		v.dmd.OnNativeMode(uops)
	}
	span := v.eng.Now() - v.spanStart
	v.attribute(cat, span)
	v.res.Instrs += uint64(boundaries)
	if v.prof != nil {
		v.prof.SpanClose(acatExec[cat], span, v.eng.BranchStalls())
		v.prof.NoteInstrs(v.res.Instrs, v.cycles)
	}
	switch cat {
	case CatSBTEmu:
		v.res.SBTInstrs += uint64(boundaries)
		v.res.SBTUops += uint64(uops)
		v.res.SBTEntities += entities
	case CatBBTEmu:
		v.res.BBTInstrs += uint64(boundaries)
		v.res.BBTUops += uint64(uops)
		v.res.BBTEntities += entities
	case CatX86Emu:
		v.res.X86Instrs += uint64(boundaries)
	case CatInterp:
		v.res.InterpInstrs += uint64(boundaries)
	}
}

// exitInd resolves the indirect exit e to target: return/indirect
// prediction, the misprediction charge and, with lookup, the software
// indirect-target lookup charge.
func (v *VM) exitInd(cat Category, e *codecache.Exit, target uint32, lookup bool) {
	var pen float64
	switch {
	case e.Ret:
		pen = v.eng.BranchCycles(timing.CTIRet, e.BranchPC, target, 0, true)
	case e.Call:
		pen = v.eng.BranchCycles(timing.CTIIndirect, e.BranchPC, target, e.ReturnPC, true)
		v.eng.BranchCycles(timing.CTICall, e.BranchPC, target, e.ReturnPC, true)
	default:
		pen = v.eng.BranchCycles(timing.CTIIndirect, e.BranchPC, target, 0, true)
	}
	v.chargeAt(cat, attrib.BPredStall, e.BranchPC, pen)
	if lookup {
		v.chargeAt(CatVMM, attrib.Chain, e.BranchPC, v.Cfg.IndirectCycles)
	}
}

// chargeAt charges cycles of software activity to cat and feeds the
// attribution profiler the same cycles under acat, incurred at pc.
func (v *VM) chargeAt(cat Category, acat attrib.Category, pc uint32, cycles float64) {
	v.charge(cat, cycles)
	if v.prof != nil {
		v.prof.Charge(acat, pc, cycles)
	}
}
