package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Time-sliced startup telemetry. A Timeline is a bounded sequence of
// cumulative machine snapshots taken at fixed simulated-cycle
// boundaries, from which per-interval startup curves (interval IPC,
// cycles by activity, instructions by emulation stage, code-cache
// occupancy) are derived at export time. The VM's sampler appends
// slices from the Run loop, right after each block's timing charge.
//
// Memory is bounded by construction: the slice array is allocated once
// at NewTimeline and never grows. When a run outlives its capacity the
// timeline coalesces — every pair of slices collapses into its second
// member and the sampling interval doubles — so an arbitrarily long run
// costs the same memory at half the resolution, and a short run keeps
// full resolution. Appends allocate nothing.

// TimelineSpec configures interval sampling.
type TimelineSpec struct {
	// IntervalCycles is the initial slice width in simulated cycles
	// (the effective width doubles each time the timeline coalesces).
	// <= 0 selects DefaultTimelineInterval.
	IntervalCycles float64
	// MaxSlices bounds the timeline's memory: the slice array is
	// preallocated at this capacity and never grows. < 2 selects
	// DefaultTimelineSlices.
	MaxSlices int
}

// Timeline sampling defaults: 10k-cycle slices, 512 of them. The
// defaults cover a 5.12M-cycle run at full resolution; longer runs
// coalesce (a 500M-cycle run ends at ~2M-cycle slices).
const (
	DefaultTimelineInterval = 10_000
	DefaultTimelineSlices   = 512
)

func (s TimelineSpec) withDefaults() TimelineSpec {
	if s.IntervalCycles <= 0 {
		s.IntervalCycles = DefaultTimelineInterval
	}
	if s.MaxSlices < 2 {
		s.MaxSlices = DefaultTimelineSlices
	}
	return s
}

// TimeSlice is one cumulative snapshot at a slice boundary. All fields
// except the cache-occupancy gauges are cumulative since the run began;
// per-interval deltas are derived at export (Rows).
type TimeSlice struct {
	// EndCycles is the boundary's position on the simulated-cycle axis.
	EndCycles float64
	// Instrs is the cumulative retired x86 instruction count, and the
	// per-stage fields split it by what executed them.
	Instrs       uint64
	InterpInstrs uint64 // interpreted
	BBTInstrs    uint64 // basic-block translations
	SBTInstrs    uint64 // optimized superblocks
	X86Instrs    uint64 // x86-mode (hardware decoders)
	// Cycle attribution: VMM runtime (dispatch, chaining, mode
	// switches), translation (BBT + SBT episodes), and emulation
	// (executing translated / interpreted / x86-mode code).
	VMMCycles   float64
	XlateCycles float64
	EmuCycles   float64
	// Code-cache occupancy at the boundary (bytes; point-in-time).
	BBTUsed uint32
	SBTUsed uint32
}

// Timeline is the allocation-bounded slice store. Appends come from
// the simulating goroutine; reads (progress heartbeat, /runs endpoint)
// may come from others, so access is mutex-guarded — appends are rare
// (once per interval boundary), never per instruction.
type Timeline struct {
	mu       sync.Mutex
	interval float64
	next     float64
	slices   []TimeSlice // len <= max, backing array allocated once
	max      int
}

// NewTimeline returns an empty timeline with the spec's (defaulted)
// interval and capacity.
func NewTimeline(spec TimelineSpec) *Timeline {
	spec = spec.withDefaults()
	return &Timeline{
		interval: spec.IntervalCycles,
		next:     spec.IntervalCycles,
		slices:   make([]TimeSlice, 0, spec.MaxSlices),
		max:      spec.MaxSlices,
	}
}

// Append records the snapshot for the boundary at s.EndCycles and
// returns the next boundary the sampler should fire at. When the
// timeline is full it first coalesces: pairs collapse into their
// second member and the interval doubles.
func (t *Timeline) Append(s TimeSlice) (nextBoundary float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.slices) == t.max {
		n := 0
		for i := 1; i < len(t.slices); i += 2 {
			t.slices[n] = t.slices[i]
			n++
		}
		t.slices = t.slices[:n]
		t.interval *= 2
	}
	t.slices = append(t.slices, s)
	t.next = s.EndCycles + t.interval
	return t.next
}

// AppendFinal records the run-end partial slice (EndCycles is the
// run's final cycle count, not a boundary). It does not advance the
// boundary clock, so a later Run call on the same VM resumes the
// regular grid; a duplicate boundary (the run ended exactly on one, or
// without progress) is dropped.
func (t *Timeline) AppendFinal(s TimeSlice) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.slices); n > 0 && t.slices[n-1].EndCycles >= s.EndCycles {
		return
	}
	if len(t.slices) == t.max {
		n := 0
		for i := 1; i < len(t.slices); i += 2 {
			t.slices[n] = t.slices[i]
			n++
		}
		t.slices = t.slices[:n]
		t.interval *= 2
	}
	t.slices = append(t.slices, s)
}

// Interval returns the current (post-coalescing) slice width.
func (t *Timeline) Interval() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.interval
}

// NextBoundary returns the cycle count the next Append is due at.
func (t *Timeline) NextBoundary() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next
}

// Len returns the number of recorded slices.
func (t *Timeline) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.slices)
}

// Slices returns a copy of the recorded slices.
func (t *Timeline) Slices() []TimeSlice {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TimeSlice(nil), t.slices...)
}

// LastIntervalIPC returns the x86 IPC of the most recent completed
// interval (instructions retired in it over its cycle width), or false
// before two slices exist. Safe to call while the run is in flight —
// the progress heartbeat and the /runs endpoint poll it live.
func (t *Timeline) LastIntervalIPC() (float64, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.slices)
	if n < 2 {
		return 0, false
	}
	a, b := t.slices[n-2], t.slices[n-1]
	if b.EndCycles <= a.EndCycles {
		return 0, false
	}
	return float64(b.Instrs-a.Instrs) / (b.EndCycles - a.EndCycles), true
}

// TimelineRow is one exported interval: the derived per-interval view
// of a slice (deltas against its predecessor plus the point-in-time
// gauges). This is the shape both the CSV and JSON exports use.
type TimelineRow struct {
	EndCycles    float64 `json:"end_cycles"`
	Cycles       float64 `json:"cycles"` // interval width
	Instrs       uint64  `json:"instrs"` // retired in the interval
	IPC          float64 `json:"ipc"`    // interval IPC
	AggIPC       float64 `json:"agg_ipc"`
	InterpInstrs uint64  `json:"interp_instrs"`
	BBTInstrs    uint64  `json:"bbt_instrs"`
	SBTInstrs    uint64  `json:"sbt_instrs"`
	X86Instrs    uint64  `json:"x86_instrs"`
	VMMCycles    float64 `json:"vmm_cycles"`
	XlateCycles  float64 `json:"xlate_cycles"`
	EmuCycles    float64 `json:"emu_cycles"`
	BBTUsed      uint32  `json:"bbt_cache_bytes"`
	SBTUsed      uint32  `json:"sbt_cache_bytes"`
}

// Rows derives the per-interval export rows from the cumulative
// slices.
func (t *Timeline) Rows() []TimelineRow {
	slices := t.Slices()
	rows := make([]TimelineRow, len(slices))
	var prev TimeSlice
	for i, s := range slices {
		w := s.EndCycles - prev.EndCycles
		r := TimelineRow{
			EndCycles:    s.EndCycles,
			Cycles:       w,
			Instrs:       s.Instrs - prev.Instrs,
			InterpInstrs: s.InterpInstrs - prev.InterpInstrs,
			BBTInstrs:    s.BBTInstrs - prev.BBTInstrs,
			SBTInstrs:    s.SBTInstrs - prev.SBTInstrs,
			X86Instrs:    s.X86Instrs - prev.X86Instrs,
			VMMCycles:    s.VMMCycles - prev.VMMCycles,
			XlateCycles:  s.XlateCycles - prev.XlateCycles,
			EmuCycles:    s.EmuCycles - prev.EmuCycles,
			BBTUsed:      s.BBTUsed,
			SBTUsed:      s.SBTUsed,
		}
		if w > 0 {
			r.IPC = float64(r.Instrs) / w
		}
		if s.EndCycles > 0 {
			r.AggIPC = float64(s.Instrs) / s.EndCycles
		}
		rows[i] = r
		prev = s
	}
	return rows
}

// timelineCSVHeader names the export columns; OBSERVABILITY.md
// documents each.
const timelineCSVHeader = "tag,slice,end_cycles,cycles,instrs,ipc,agg_ipc," +
	"interp_instrs,bbt_instrs,sbt_instrs,x86_instrs," +
	"vmm_cycles,xlate_cycles,emu_cycles,bbt_cache_bytes,sbt_cache_bytes"

// writeCSVRows renders the timeline's rows, one line per interval,
// prefixed with the run tag.
func (t *Timeline) writeCSVRows(w io.Writer, tag string) error {
	for i, r := range t.Rows() {
		_, err := fmt.Fprintf(w, "%s,%d,%g,%g,%d,%.6g,%.6g,%d,%d,%d,%d,%.6g,%.6g,%.6g,%d,%d\n",
			tag, i, r.EndCycles, r.Cycles, r.Instrs, r.IPC, r.AggIPC,
			r.InterpInstrs, r.BBTInstrs, r.SBTInstrs, r.X86Instrs,
			r.VMMCycles, r.XlateCycles, r.EmuCycles, r.BBTUsed, r.SBTUsed)
		if err != nil {
			return err
		}
	}
	return nil
}

// WriteTimelinesCSV renders every run's timeline (runs without one are
// skipped) as one CSV table with a leading tag column, in the given
// run order.
func WriteTimelinesCSV(w io.Writer, runs []*Recorder) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, timelineCSVHeader); err != nil {
		return err
	}
	for _, r := range runs {
		tl := r.Timeline()
		if tl == nil {
			continue
		}
		if err := tl.writeCSVRows(bw, r.Tag()); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// timelineJSON is the JSON export shape of one run's timeline.
type timelineJSON struct {
	Tag      string        `json:"tag"`
	Interval float64       `json:"interval_cycles"`
	Rows     []TimelineRow `json:"intervals"`
}

// WriteTimelinesJSON renders every run's timeline as a JSON array of
// {tag, interval_cycles, intervals}, in the given run order.
func WriteTimelinesJSON(w io.Writer, runs []*Recorder) error {
	out := make([]timelineJSON, 0, len(runs))
	for _, r := range runs {
		tl := r.Timeline()
		if tl == nil {
			continue
		}
		out = append(out, timelineJSON{Tag: r.Tag(), Interval: tl.Interval(), Rows: tl.Rows()})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
