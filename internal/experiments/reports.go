package experiments

import (
	"fmt"
	"math"
	"sort"

	"codesignvm/internal/interp"
	"codesignvm/internal/machine"
	"codesignvm/internal/metrics"
	"codesignvm/internal/model"
	"codesignvm/internal/vmm"
	"codesignvm/internal/workload"
)

// Fig3Report is the execution-frequency characterization of Figure 3 and
// the measured inputs of the §3.2 overhead model (Eq. 1).
type Fig3Report struct {
	Opt          Options
	Hist         metrics.Histogram
	HotThreshold uint64
	// MBBT is the average static footprint (instructions touched);
	// MSBT the average static instructions above the hot threshold.
	MBBT, MSBT float64
	PerApp     map[string]metrics.Histogram
}

// Fig3 profiles per-instruction execution frequencies over the
// short (100M-equivalent) traces, averaged across the suite.
func Fig3(opt Options) (*Fig3Report, error) {
	opt = opt.withDefaults()
	thr := uint64(8000)
	if opt.HotThreshold > 0 {
		thr = opt.HotThreshold
	}
	rep := &Fig3Report{Opt: opt, HotThreshold: thr, PerApp: map[string]metrics.Histogram{}}
	type appProfile struct {
		hist metrics.Histogram
		hot  uint64
	}
	profiles := make([]appProfile, len(opt.Apps))
	err := opt.forEachTask(len(opt.Apps), func(ai int) error {
		app := opt.Apps[ai]
		prog, err := workload.App(app, opt.Scale)
		if err != nil {
			return err
		}
		mem := prog.Memory()
		st := prog.InitState()
		m := interp.New(st, mem)
		// Execution counts: one uint32 per byte of the code segment
		// (no count can exceed the trace length), a map for any PC
		// outside it.
		var dense []uint32
		if opt.ShortInstrs <= math.MaxUint32 {
			dense = make([]uint32, len(prog.Code))
		}
		sparse := map[uint32]uint64{}
		for i := uint64(0); i < opt.ShortInstrs && !m.Halted; i++ {
			if off := st.EIP - workload.CodeBase; off < uint32(len(dense)) {
				dense[off]++
			} else {
				sparse[st.EIP]++
			}
			if _, err := m.Step(); err != nil {
				return fmt.Errorf("%s: %w", app, err)
			}
		}
		hot := uint64(0)
		for _, c := range dense {
			if uint64(c) >= rep.HotThreshold {
				hot++
			}
		}
		for _, c := range sparse {
			if c >= rep.HotThreshold {
				hot++
			}
		}
		profiles[ai] = appProfile{hist: metrics.BuildHistogram(dense, sparse), hot: hot}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Reduce in suite order so the float sums are deterministic.
	var sumB [8]uint64
	var sumDyn [8]float64
	for ai, app := range opt.Apps {
		p := profiles[ai]
		rep.PerApp[app] = p.hist
		rep.MBBT += float64(p.hist.Total)
		rep.MSBT += float64(p.hot)
		for i := range sumB {
			sumB[i] += p.hist.Buckets[i]
			sumDyn[i] += p.hist.DynFrac[i]
		}
	}
	n := float64(len(opt.Apps))
	rep.MBBT /= n
	rep.MSBT /= n
	rep.Hist.Buckets = make([]uint64, 8)
	rep.Hist.DynFrac = make([]float64, 8)
	for i := range sumB {
		rep.Hist.Buckets[i] = sumB[i] / uint64(len(opt.Apps))
		rep.Hist.DynFrac[i] = sumDyn[i] / n
		rep.Hist.Total += rep.Hist.Buckets[i]
	}
	return rep, nil
}

// FormatFig3 renders the Figure 3 histogram.
func FormatFig3(r *Fig3Report) string {
	out := "Fig. 3 — execution frequency profile (averaged over apps)\n"
	out += fmt.Sprintf("%-8s %16s %14s\n", "bucket", "static instrs", "dynamic share")
	for i, lbl := range metrics.BucketLabels() {
		out += fmt.Sprintf("%-8s %16d %13.1f%%\n", lbl, r.Hist.Buckets[i], 100*r.Hist.DynFrac[i])
	}
	out += fmt.Sprintf("MBBT (static touched): %.0f   MSBT (≥%d execs): %.0f (%.2f%%)\n",
		r.MBBT, r.HotThreshold, r.MSBT, 100*r.MSBT/r.MBBT)
	return out
}

// OverheadReport compares the measured Eq. 1 decomposition with the
// paper's §3.2 numbers.
type OverheadReport struct {
	Measured model.Overhead
	Paper    model.Overhead
	// ScaledPaper is the paper decomposition divided by the run scale,
	// the apples-to-apples comparison for scaled workloads.
	ScaledPaper model.Overhead
}

// Sec32Overhead measures MBBT/MSBT (via Fig3) and evaluates Eq. 1 with
// the paper's per-instruction translation costs.
func Sec32Overhead(opt Options) (*OverheadReport, error) {
	f3, err := Fig3(opt)
	if err != nil {
		return nil, err
	}
	paper := model.PaperOverhead()
	scaled := paper
	scaled.MBBT /= float64(f3.Opt.Scale)
	scaled.MSBT /= float64(f3.Opt.Scale)
	return &OverheadReport{
		Measured:    model.Overhead{MBBT: f3.MBBT, MSBT: f3.MSBT, DeltaBBT: paper.DeltaBBT, DeltaSBT: paper.DeltaSBT},
		Paper:       paper,
		ScaledPaper: scaled,
	}, nil
}

// FormatOverhead renders the Eq. 1 comparison.
func FormatOverhead(r *OverheadReport) string {
	return fmt.Sprintf(`§3.2 / Eq. 1 — translation overhead decomposition
measured (scaled workloads): %v  (BBT dominates: %v)
paper values (scale 1):      %v
paper values at this scale:  %v
`, r.Measured.String(), r.Measured.BBTDominates(), r.Paper.String(), r.ScaledPaper.String())
}

// Fig9Report holds per-benchmark breakeven points (cycles to first catch
// the reference superscalar).
type Fig9Report struct {
	Opt    Options
	Models []machine.Model
	// Breakeven[app][model] in cycles; 0 = never within the trace.
	Breakeven map[string]map[machine.Model]float64
	// RefCycles[app] is the reference run length (the "did not break
	// even within the simulation" bar height of the figure).
	RefCycles map[string]float64
}

// Fig9 reproduces Figure 9: breakeven points for each benchmark under
// VM.soft, VM.be and VM.fe.
func Fig9(opt Options) (*Fig9Report, error) {
	opt = opt.withDefaults()
	models := []machine.Model{machine.VMSoft, machine.VMBE, machine.VMFE}
	rep := &Fig9Report{
		Opt:       opt,
		Models:    models,
		Breakeven: map[string]map[machine.Model]float64{},
		RefCycles: map[string]float64{},
	}
	// Grid over (app × {Ref, models...}); Ref shares the startup-curve
	// harnesses' runs through the result cache.
	all := append([]machine.Model{machine.Ref}, models...)
	na := len(all)
	flat := make([]*vmm.Result, len(opt.Apps)*na)
	err := opt.forEachTask(len(flat), func(i int) error {
		app, m := opt.Apps[i/na], all[i%na]
		res, err := opt.runApp(opt.configFor(m), app, opt.LongInstrs)
		if err != nil {
			return fmt.Errorf("%s on %v: %w", app, m, err)
		}
		flat[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ai, app := range opt.Apps {
		ref := flat[ai*na]
		row := map[machine.Model]float64{}
		for mi, m := range models {
			if be, ok := metrics.Breakeven(ref.Samples, flat[ai*na+1+mi].Samples); ok {
				row[m] = be
			}
		}
		rep.Breakeven[app] = row
		rep.RefCycles[app] = ref.Cycles
	}
	return rep, nil
}

// FormatFig9 renders the per-benchmark breakeven table.
func FormatFig9(r *Fig9Report) string {
	out := "Fig. 9 — breakeven points (cycles; '-' = not within trace)\n"
	out += fmt.Sprintf("%-12s", "app")
	for _, m := range r.Models {
		out += fmt.Sprintf("%12s", m)
	}
	out += fmt.Sprintf("%14s\n", "trace cycles")
	apps := append([]string(nil), r.Opt.Apps...)
	sort.Strings(apps)
	for _, app := range apps {
		out += fmt.Sprintf("%-12s", app)
		for _, m := range r.Models {
			if be := r.Breakeven[app][m]; be > 0 {
				out += fmt.Sprintf("%12.3g", be)
			} else {
				out += fmt.Sprintf("%12s", "-")
			}
		}
		out += fmt.Sprintf("%14.3g\n", r.RefCycles[app])
	}
	return out
}

// Fig10Row is one benchmark's VM.be cycle breakdown over the short trace.
type Fig10Row struct {
	BBTXlatePct float64 // cycles translating with BBT (paper avg: 2.7%)
	BBTEmuPct   float64 // cycles executing BBT code (paper avg: ~35%)
	SBTXlatePct float64 // cycles optimizing (paper: 3.2%)
	SBTEmuPct   float64 // cycles in optimized code (paper: ~59%)
	VMMPct      float64
	Coverage    float64 // instructions retired from SBT code (paper: 63%)
	// SoftBBTXlatePct is the same benchmark under VM.soft (paper: 9.9%).
	SoftBBTXlatePct float64
	// CyclesPerXlatedInst measures the effective BBT cost (83 vs 20).
	CyclesPerXlatedInst float64
}

// Fig10Report is the Figure 10 breakdown.
type Fig10Report struct {
	Opt    Options
	PerApp map[string]Fig10Row
	Avg    Fig10Row
}

// Fig10 reproduces Figure 10: where VM.be spends its cycles during the
// first 100M-equivalent instructions, per benchmark.
func Fig10(opt Options) (*Fig10Report, error) {
	opt = opt.withDefaults()
	rep := &Fig10Report{Opt: opt, PerApp: map[string]Fig10Row{}}
	// Grid over (app × {VM.be, VM.soft}); rows and the average assemble
	// after the barrier in suite order, keeping the float reduction
	// deterministic.
	flat := make([]*vmm.Result, 2*len(opt.Apps))
	err := opt.forEachTask(len(flat), func(i int) error {
		app, m := opt.Apps[i/2], machine.VMBE
		if i%2 == 1 {
			m = machine.VMSoft
		}
		res, err := opt.runApp(opt.configFor(m), app, opt.ShortInstrs)
		if err != nil {
			return fmt.Errorf("%s on %v: %w", app, m, err)
		}
		flat[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := float64(len(opt.Apps))
	for ai, app := range opt.Apps {
		be, soft := flat[2*ai], flat[2*ai+1]
		row := Fig10Row{
			BBTXlatePct:     100 * be.Cat[vmm.CatBBTXlate] / be.Cycles,
			BBTEmuPct:       100 * be.Cat[vmm.CatBBTEmu] / be.Cycles,
			SBTXlatePct:     100 * be.Cat[vmm.CatSBTXlate] / be.Cycles,
			SBTEmuPct:       100 * be.Cat[vmm.CatSBTEmu] / be.Cycles,
			VMMPct:          100 * be.Cat[vmm.CatVMM] / be.Cycles,
			Coverage:        100 * be.HotspotCoverage(),
			SoftBBTXlatePct: 100 * soft.Cat[vmm.CatBBTXlate] / soft.Cycles,
		}
		if be.BBTX86Translated > 0 {
			row.CyclesPerXlatedInst = be.Cat[vmm.CatBBTXlate] / float64(be.BBTX86Translated)
		}
		rep.PerApp[app] = row
		rep.Avg.BBTXlatePct += row.BBTXlatePct / n
		rep.Avg.BBTEmuPct += row.BBTEmuPct / n
		rep.Avg.SBTXlatePct += row.SBTXlatePct / n
		rep.Avg.SBTEmuPct += row.SBTEmuPct / n
		rep.Avg.VMMPct += row.VMMPct / n
		rep.Avg.Coverage += row.Coverage / n
		rep.Avg.SoftBBTXlatePct += row.SoftBBTXlatePct / n
		rep.Avg.CyclesPerXlatedInst += row.CyclesPerXlatedInst / n
	}
	return rep, nil
}

// FormatFig10 renders the VM.be breakdown table.
func FormatFig10(r *Fig10Report) string {
	out := "Fig. 10 — VM.be cycle breakdown, first 100M-equivalent instructions\n"
	out += fmt.Sprintf("%-12s %9s %9s %9s %9s %7s %9s %11s %9s\n",
		"app", "bbt-xl%", "bbt-emu%", "sbt-xl%", "sbt-emu%", "vmm%", "cover%", "cyc/xl-inst", "soft-xl%")
	apps := make([]string, 0, len(r.PerApp))
	for app := range r.PerApp {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	line := func(name string, row Fig10Row) string {
		return fmt.Sprintf("%-12s %9.2f %9.1f %9.2f %9.1f %7.1f %9.1f %11.1f %9.2f\n",
			name, row.BBTXlatePct, row.BBTEmuPct, row.SBTXlatePct, row.SBTEmuPct,
			row.VMMPct, row.Coverage, row.CyclesPerXlatedInst, row.SoftBBTXlatePct)
	}
	for _, app := range apps {
		out += line(app, r.PerApp[app])
	}
	out += line("AVERAGE", r.Avg)
	return out
}

// Fig11Report holds the decoder-activity curves of Figure 11.
type Fig11Report struct {
	Opt    Options
	Grid   []float64
	Models []machine.Model
	// Activity[model] is the cumulative x86-decode-hardware activity in
	// percent of cycles at each grid point, averaged over apps.
	Activity map[machine.Model][]float64
}

// Fig11 reproduces Figure 11: aggregate activity of the x86 decoding
// hardware over time for the four machine configurations.
func Fig11(opt Options) (*Fig11Report, error) {
	opt = opt.withDefaults()
	models := []machine.Model{machine.Ref, machine.VMSoft, machine.VMBE, machine.VMFE}
	curves, err := runStartup(opt, models)
	if err != nil {
		return nil, err
	}
	rep := &Fig11Report{Opt: opt, Grid: curves.Grid, Models: models, Activity: map[machine.Model][]float64{}}
	for _, m := range models {
		act := make([]float64, len(rep.Grid))
		for gi, c := range rep.Grid {
			sum, n := 0.0, 0
			for _, app := range opt.Apps {
				res := curves.Result(app, m)
				if res == nil {
					continue
				}
				var busy float64
				switch m {
				case machine.Ref:
					busy = c // decoders always on
				case machine.VMSoft:
					busy = 0 // no x86 decode hardware at all
				case machine.VMBE:
					busy = sampleAt(res.Samples, c, func(s vmm.Sample) float64 { return s.XltBusy })
				case machine.VMFE:
					busy = sampleAt(res.Samples, c, func(s vmm.Sample) float64 { return s.Cat[vmm.CatX86Emu] })
				}
				sum += 100 * busy / c
				n++
			}
			if n > 0 {
				act[gi] = sum / float64(n)
			}
		}
		rep.Activity[m] = act
	}
	return rep, nil
}

// FormatFig11 renders the activity curves.
func FormatFig11(r *Fig11Report) string {
	out := "Fig. 11 — aggregate x86-decode hardware activity (%)\n"
	out += fmt.Sprintf("%-14s", "cycles")
	for _, m := range r.Models {
		out += fmt.Sprintf("%12s", m)
	}
	out += "\n"
	for gi := 0; gi < len(r.Grid); gi += 4 {
		out += fmt.Sprintf("%-14.3g", r.Grid[gi])
		for _, m := range r.Models {
			out += fmt.Sprintf("%12.1f", r.Activity[m][gi])
		}
		out += "\n"
	}
	return out
}
