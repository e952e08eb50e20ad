// Package attrib is the deterministic simulated-cycle attribution
// profiler: it charges every simulated cycle of a run to a fixed cause
// taxonomy (interpreting, translating, executing translated code,
// chaining, warm-restore work, frontend/memory/branch stalls) and, at a
// configurable granularity, to the x86 code region that incurred it.
//
// The profiler follows the repo's hot-path allocation discipline
// (DESIGN.md §9): all state is fixed arrays indexed by category plus
// one flat region grid allocated at construction — no maps, no
// allocation, no locks on the charge path. A nil *Profile is the
// disabled state; every VMM hook is guarded by a nil check, so the
// disabled cost is one predictable branch per site.
//
// Determinism: charges are applied inline by the timing model in
// execution order, so attribution snapshots — and everything derived
// from them (the phases figure, flamegraphs, OpenMetrics counters) —
// are reproducible byte for byte. Finish reconciles floating-point residue so the per-category
// cycles sum *exactly* (bit-for-bit) to the run's total simulated
// cycles. DESIGN.md §11 is the design note; OBSERVABILITY.md "Cycle
// attribution" documents the taxonomy and the user-facing surfaces.
package attrib

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
)

// Category is one cause in the attribution taxonomy. The enum is
// append-only: persisted snapshots (run-store schema) index by it.
type Category uint8

// Attribution categories.
const (
	// Interpret: cycles spent interpreting x86 instructions (the
	// memory-image startup mode of the paper), excluding the stalls
	// split out below.
	Interpret Category = iota
	// BBTTranslate: basic-block translator invocations.
	BBTTranslate
	// BBTExec: executing BBT-translated code (minus split-out stalls).
	BBTExec
	// SBTForm: superblock formation and optimization.
	SBTForm
	// SBTExec: executing superblock code (minus split-out stalls).
	SBTExec
	// X86Exec: executing x86 code natively (the reference machine).
	X86Exec
	// Chain: VMM transition work — dispatch-table lookups, block
	// chaining/unchaining, indirect-target lookups, mode switches.
	Chain
	// CacheFlush: code-cache flush/eviction work. The current cost
	// model performs flushes instantaneously in simulated time, so
	// this category books zero cycles today; it exists so the
	// taxonomy (and persisted snapshots) need no schema change when a
	// flush cost model lands.
	CacheFlush
	// RestorePreload: eager/hybrid warm-start preload work at restore
	// time (DESIGN.md §10).
	RestorePreload
	// RestoreFault: lazy warm-start restore faults taken on first
	// execution of a restored entry.
	RestoreFault
	// IFetchStall: instruction-fetch stalls at block entry.
	IFetchStall
	// DMissStall: data-cache miss stalls beyond the L1 load-to-use
	// latency, where the model exposes them separately (the
	// interpreter path; translated-code load stalls are folded into
	// the exec categories by the dataflow model).
	DMissStall
	// BPredStall: branch-misprediction bubbles.
	BPredStall

	// NumCategories is the category count (fixed array sizes).
	NumCategories
)

var catNames = [NumCategories]string{
	"interpret",
	"bbt-translate",
	"bbt-exec",
	"sbt-form",
	"sbt-exec",
	"x86-exec",
	"chain",
	"cache-flush",
	"restore-preload",
	"restore-fault",
	"ifetch-stall",
	"dmiss-stall",
	"bpred-stall",
}

func (c Category) String() string {
	if c < NumCategories {
		return catNames[c]
	}
	return "attrib?"
}

// ParseCategory maps a category name back to its value.
func ParseCategory(s string) (Category, bool) {
	for i, n := range catNames {
		if n == s {
			return Category(i), true
		}
	}
	return 0, false
}

// Spec configures one profiler: the region grid (bucketed entry-PC
// ranges) and the retired-instruction milestones at which cumulative
// per-category snapshots are taken for the phases figure.
type Spec struct {
	// RegionBase is the first PC covered by the region grid. PCs below
	// it (or past the last slot) land in the catch-all "other" region.
	RegionBase uint32
	// RegionShift is the log2 region size (default 12 → 4 KiB).
	RegionShift uint8
	// RegionSlots is the number of regions after the catch-all
	// (default 256 → 1 MiB of code at the default shift).
	RegionSlots int
	// Milestones are retired-instruction counts at which a cumulative
	// per-category snapshot is recorded, ascending.
	Milestones []uint64
}

// Default region-grid geometry.
const (
	DefaultRegionShift = 12
	DefaultRegionSlots = 256
)

// withDefaults fills zero fields.
func (s Spec) withDefaults() Spec {
	if s.RegionShift == 0 {
		s.RegionShift = DefaultRegionShift
	}
	if s.RegionSlots <= 0 {
		s.RegionSlots = DefaultRegionSlots
	}
	return s
}

// Key returns the spec's canonical identity string. It participates in
// run-cache keys (an attribution-bearing result must not satisfy a
// differently-specced request) and must therefore be stable.
func (s Spec) Key() string {
	s = s.withDefaults()
	return fmt.Sprintf("base=%#x shift=%d slots=%d ms=%v",
		s.RegionBase, s.RegionShift, s.RegionSlots, s.Milestones)
}

// Profile accumulates one run's attribution. All mutating methods are
// called from the run's timing model only (single-goroutine, like the
// timing engine itself); Finish returns the immutable snapshot.
type Profile struct {
	spec Spec

	cat  [NumCategories]float64
	grid []float64 // (RegionSlots+1) × NumCategories, slot-major

	// Open-span state (one block execution).
	spanSlot  int
	spanFetch float64
	spanDMiss float64
	spanBr0   float64

	phases    []Phase
	nextPhase int
}

// New builds a profile for one run. All allocation happens here; the
// charge path allocates nothing.
func New(spec Spec) *Profile {
	spec = spec.withDefaults()
	return &Profile{
		spec:   spec,
		grid:   make([]float64, (spec.RegionSlots+1)*int(NumCategories)),
		phases: make([]Phase, 0, len(spec.Milestones)),
	}
}

// slotOf buckets a PC into the region grid; 0 is the catch-all.
func (p *Profile) slotOf(pc uint32) int {
	if pc < p.spec.RegionBase {
		return 0
	}
	s := int((pc-p.spec.RegionBase)>>p.spec.RegionShift) + 1
	if s > p.spec.RegionSlots {
		return 0
	}
	return s
}

// Charge books cycles against a category at a PC. Used by the
// out-of-span charge sites (translation, dispatch, restore work,
// branch-exit penalties).
func (p *Profile) Charge(cat Category, pc uint32, cycles float64) {
	if cycles == 0 {
		return
	}
	p.cat[cat] += cycles
	p.grid[p.slotOf(pc)*int(NumCategories)+int(cat)] += cycles
}

// SpanOpen starts a block-execution span at entry pc: fetch is the
// instruction-fetch stall already charged for this block, brStalls the
// engine's cumulative branch-stall counter at open.
func (p *Profile) SpanOpen(pc uint32, fetch, brStalls float64) {
	p.spanSlot = p.slotOf(pc)
	p.spanFetch = fetch
	p.spanDMiss = 0
	p.spanBr0 = brStalls
}

// SpanDMiss accumulates an exposed data-miss stall inside the open
// span (the interpreter path).
func (p *Profile) SpanDMiss(stall float64) {
	p.spanDMiss += stall
}

// SpanClose ends the span: span is its total measured cycles, cat the
// execution category of the block, brStalls the engine's cumulative
// branch-stall counter at close. The span decomposes into I-fetch,
// D-miss and branch stalls plus the execution remainder.
func (p *Profile) SpanClose(cat Category, span, brStalls float64) {
	br := brStalls - p.spanBr0
	exec := span - p.spanFetch - p.spanDMiss - br
	base := p.spanSlot * int(NumCategories)
	if p.spanFetch != 0 {
		p.cat[IFetchStall] += p.spanFetch
		p.grid[base+int(IFetchStall)] += p.spanFetch
	}
	if p.spanDMiss != 0 {
		p.cat[DMissStall] += p.spanDMiss
		p.grid[base+int(DMissStall)] += p.spanDMiss
	}
	if br != 0 {
		p.cat[BPredStall] += br
		p.grid[base+int(BPredStall)] += br
	}
	p.cat[cat] += exec
	p.grid[base+int(cat)] += exec
}

// NoteInstrs records cumulative milestone snapshots once the retired
// instruction count crosses each configured milestone. cycles is the
// run's simulated cycle count at the same point.
func (p *Profile) NoteInstrs(instrs uint64, cycles float64) {
	for p.nextPhase < len(p.spec.Milestones) && instrs >= p.spec.Milestones[p.nextPhase] {
		p.phases = append(p.phases, Phase{
			Milestone: p.spec.Milestones[p.nextPhase],
			Instrs:    instrs,
			Cycles:    cycles,
			Cat:       p.cat,
		})
		p.nextPhase++
	}
}

// Phase is one cumulative milestone snapshot.
type Phase struct {
	Milestone uint64  // the configured milestone
	Instrs    uint64  // actual retired instructions at the snapshot (≥ Milestone)
	Cycles    float64 // simulated cycles at the snapshot
	// Cat is the cumulative per-category attribution at the snapshot.
	Cat [NumCategories]float64
}

// RegionCycles is one non-empty region of a snapshot.
type RegionCycles struct {
	// Slot is the region index; 0 is the catch-all "other" region,
	// slot s>0 covers [base+(s-1)<<shift, base+s<<shift).
	Slot int
	Cat  [NumCategories]float64
}

// Start returns the first PC of the region (0 for the catch-all).
func (r RegionCycles) Start(base uint32, shift uint8) uint32 {
	if r.Slot == 0 {
		return 0
	}
	return base + uint32(r.Slot-1)<<shift
}

// Snapshot is one run's immutable attribution result.
type Snapshot struct {
	// Cat sums exactly (==) to TotalCycles after reconciliation.
	Cat         [NumCategories]float64
	TotalCycles float64
	// Residual is the floating-point residue that reconciliation
	// folded into the largest category (diagnostic; typically ~ulp).
	Residual    float64
	RegionBase  uint32
	RegionShift uint8
	Regions     []RegionCycles // non-empty regions, ascending slot
	Phases      []Phase        // milestone snapshots, ascending
}

// Finish reconciles the profile against the run's total simulated
// cycle count and returns the snapshot. The per-category values are
// each exact sums of the cycles charged to them, but their fixed-order
// float64 sum can differ from the run's total by accumulated rounding;
// Finish folds that residue into the largest category (ties broken by
// lowest index), iterating until the fixed-order sum equals the total
// bit-for-bit. The procedure is deterministic, so snapshots are
// reproducible byte for byte.
func (p *Profile) Finish(totalCycles float64) *Snapshot {
	s := &Snapshot{
		Cat:         p.cat,
		TotalCycles: totalCycles,
		RegionBase:  p.spec.RegionBase,
		RegionShift: p.spec.withDefaults().RegionShift,
		Phases:      append([]Phase(nil), p.phases...),
	}
	sum := func() float64 {
		t := 0.0
		for i := range s.Cat {
			t += s.Cat[i]
		}
		return t
	}
	s.Residual = totalCycles - sum()
	if !math.IsNaN(s.Residual) && !math.IsInf(s.Residual, 0) {
		// Coarse: fold the residue into the largest category (ties →
		// lowest index), which absorbs it with the least relative
		// distortion.
		k := 0
		for i := 1; i < int(NumCategories); i++ {
			if s.Cat[i] > s.Cat[k] {
				k = i
			}
		}
		s.Cat[k] += s.Residual
		// Fine: the coarse fold can still leave an ulp-scale gap,
		// because the folded category is summed mid-order and
		// re-rounded against every later term. The *last* summed
		// category gives single-rounding control: with S' the
		// fixed-order sum of the others, the total sum is one rounded
		// addition RN(S' + Cat[last]). Recomputing Cat[last] as
		// total − S' (exact by Sterbenz when the two are close, which
		// the coarse fold guarantees) perturbs it only by the already-
		// folded residue and makes the sum land on total, up to at most
		// a final one-ulp rounding handled by Nextafter stepping —
		// RN(S'+x) is monotone in x and skips no representable value,
		// so the steps provably reach an exact fixed-order sum.
		last := int(NumCategories) - 1
		sPrefix := 0.0
		for i := 0; i < last; i++ {
			sPrefix += s.Cat[i]
		}
		s.Cat[last] = totalCycles - sPrefix
		for iter := 0; iter < 64; iter++ {
			d := totalCycles - sum()
			if d == 0 {
				break
			}
			s.Cat[last] = math.Nextafter(s.Cat[last], math.Copysign(math.Inf(1), d))
		}
	}

	nc := int(NumCategories)
	for slot := 0; slot*nc < len(p.grid); slot++ {
		row := p.grid[slot*nc : slot*nc+nc]
		empty := true
		for _, v := range row {
			if v != 0 {
				empty = false
				break
			}
		}
		if empty {
			continue
		}
		rc := RegionCycles{Slot: slot}
		copy(rc.Cat[:], row)
		s.Regions = append(s.Regions, rc)
	}
	return s
}

// Merge combines snapshots (e.g. all runs of a sweep) into one, in
// argument order: categories, totals and region rows sum; phase rows
// sum by index when milestones agree (otherwise the first snapshot's
// phase axis wins and mismatched rows are dropped — merging runs of
// different specs is not meaningful). The result is deterministic for
// a deterministic input order.
func Merge(snaps ...*Snapshot) *Snapshot {
	out := &Snapshot{}
	bySlot := map[int]int{}
	first := true
	for _, sn := range snaps {
		if sn == nil {
			continue
		}
		if first {
			out.RegionBase, out.RegionShift = sn.RegionBase, sn.RegionShift
			out.Phases = make([]Phase, len(sn.Phases))
			copy(out.Phases, sn.Phases)
			first = false
		} else {
			for i := range out.Phases {
				if i < len(sn.Phases) && sn.Phases[i].Milestone == out.Phases[i].Milestone {
					out.Phases[i].Instrs += sn.Phases[i].Instrs
					out.Phases[i].Cycles += sn.Phases[i].Cycles
					for c := range out.Phases[i].Cat {
						out.Phases[i].Cat[c] += sn.Phases[i].Cat[c]
					}
				}
			}
		}
		out.TotalCycles += sn.TotalCycles
		out.Residual += sn.Residual
		for c := range sn.Cat {
			out.Cat[c] += sn.Cat[c]
		}
		for _, r := range sn.Regions {
			i, ok := bySlot[r.Slot]
			if !ok {
				i = len(out.Regions)
				bySlot[r.Slot] = i
				out.Regions = append(out.Regions, RegionCycles{Slot: r.Slot})
			}
			for c := range r.Cat {
				out.Regions[i].Cat[c] += r.Cat[c]
			}
		}
	}
	sort.Slice(out.Regions, func(i, j int) bool { return out.Regions[i].Slot < out.Regions[j].Slot })
	return out
}

// WriteCollapsed renders the snapshot in collapsed-stack format —
// `category;region count`, one line per non-zero (category, region)
// pair with the cycle count rounded to an integer — consumable by
// standard flamegraph tooling (flamegraph.pl, speedscope, inferno).
// Lines are emitted in category-enum then ascending-region order, so
// output is deterministic.
func (s *Snapshot) WriteCollapsed(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for c := Category(0); c < NumCategories; c++ {
		for _, r := range s.Regions {
			n := int64(math.Round(r.Cat[c]))
			if n <= 0 {
				continue
			}
			if r.Slot == 0 {
				fmt.Fprintf(bw, "%s;other %d\n", c, n)
			} else {
				fmt.Fprintf(bw, "%s;0x%08x %d\n", c, r.Start(s.RegionBase, s.RegionShift), n)
			}
		}
	}
	return bw.Flush()
}
