package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"codesignvm/internal/bbt"
	"codesignvm/internal/bpred"
	"codesignvm/internal/cache"
	"codesignvm/internal/codecache"
	"codesignvm/internal/crack"
	"codesignvm/internal/experiments"
	"codesignvm/internal/fisa"
	"codesignvm/internal/interp"
	"codesignvm/internal/machine"
	"codesignvm/internal/obs"
	"codesignvm/internal/profile"
	"codesignvm/internal/sbt"
	"codesignvm/internal/timing"
	"codesignvm/internal/vmm"
	"codesignvm/internal/workload"
	"codesignvm/internal/x86"
)

// Budgets of the experiment grid at a scale (experiments.Options
// defaults): the long traces of Figs. 2, 8, 9 and 11 and the short
// traces of Figs. 3 and 10.
func longInstrs(scale int) uint64  { return 500_000_000 / uint64(scale) }
func shortInstrs(scale int) uint64 { return 100_000_000 / uint64(scale) }

// program is one generated workload program the traced run drives the
// layers with.
type program struct {
	App   string
	Scale int
	Prog  *workload.Program
}

// progKey names one program: an application at a scale.
type progKey struct {
	App   string
	Scale int
}

// genPrograms is the workload span: it generates (and caches, as vmsim
// does) every program the workload's inputs name.
func (b *bench) genPrograms(tr *tracer, parent int, keys []progKey) ([]program, error) {
	var progs []program
	var static uint64
	d, err := tr.do("workload", parent, func() error {
		for _, k := range keys {
			p, err := workload.App(k.App, k.Scale)
			if err != nil {
				return err
			}
			progs = append(progs, program{App: k.App, Scale: k.Scale, Prog: p})
			static += uint64(p.StaticInstrs)
		}
		return nil
	})
	b.set("workload.gen_ms", "ms", ms(d))
	b.set("workload.static_instrs", "count", float64(static))
	return progs, err
}

// cell is one vmm grid cell: a (model, app, budget) run.
type cell struct {
	Model  machine.Model
	App    string
	Instrs uint64
	Wall   time.Duration
	Res    *vmm.Result
}

// gridModels are the sweep's grid: five models on the long trace and
// Fig. 10's two on the short one. Every figure of the sweep reads its
// runs from these cells.
var (
	longModels  = []machine.Model{machine.Ref, machine.VMSoft, machine.VMInterp, machine.VMBE, machine.VMFE}
	shortModels = []machine.Model{machine.VMBE, machine.VMSoft}
)

// defaultFlagConfig is the vmm configuration vmsim runs a model with on
// its default flags (-pipeline=true, threaded dispatch on).
func defaultFlagConfig(m machine.Model) vmm.Config {
	cfg := machine.Config(m)
	cfg.Pipeline = true
	return cfg
}

// vmmCells runs every grid cell of the programs through
// machine.RunConfig, one span each, and reports the vmm metrics.
func (b *bench) vmmCells(tr *tracer, parent int, progs []program) ([]cell, error) {
	var cells []cell
	cpu0 := selfCPU()
	var wall time.Duration
	for _, p := range progs {
		var grid []cell
		for _, m := range longModels {
			grid = append(grid, cell{Model: m, App: p.App, Instrs: longInstrs(p.Scale)})
		}
		for _, m := range shortModels {
			grid = append(grid, cell{Model: m, App: p.App, Instrs: shortInstrs(p.Scale)})
		}
		for _, c := range grid {
			d, err := tr.do(fmt.Sprintf("vmm %v/%s/%d", c.Model, c.App, c.Instrs), parent, func() error {
				var err error
				c.Res, err = machine.RunConfig(defaultFlagConfig(c.Model), p.Prog, c.Instrs)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("vmm %v/%s: %w", c.Model, c.App, err)
			}
			c.Wall = d
			wall += d
			cells = append(cells, c)
		}
	}
	cpu := selfCPU() - cpu0
	var instrs, hits, lookups uint64
	perModel := map[machine.Model][2]float64{}
	for _, c := range cells {
		instrs += c.Res.Instrs
		hits += c.Res.JTLBHits
		lookups += c.Res.JTLBHits + c.Res.JTLBMisses
		v := perModel[c.Model]
		perModel[c.Model] = [2]float64{v[0] + float64(c.Wall), v[1] + float64(c.Res.Instrs)}
	}
	b.set("vmm.run_s", "s", wall.Seconds())
	b.set("vmm.cpu_per_wall", "ratio", cpu.Seconds()/wall.Seconds())
	b.set("vmm.instrs", "count", float64(instrs))
	b.set("vmm.jtlb_hit_ratio", "ratio", float64(hits)/float64(max(lookups, 1)))
	for _, m := range longModels {
		v := perModel[m]
		b.set("vmm.ns_per_instr."+m.String(), "ns", v[0]/v[1])
	}
	return cells, nil
}

// experimentSpans runs each figure of exps through RunExperiment
// against store, one span each, and returns the concatenated report in
// the CLI's stripped form.
func (b *bench) experimentSpans(tr *tracer, parent int, exps []string, opt experiments.Options, app string, figMs map[string]time.Duration) ([]byte, error) {
	var report bytes.Buffer
	for _, exp := range exps {
		var txt string
		d, err := tr.do("experiments."+exp, parent, func() error {
			var err error
			txt, err = experiments.RunExperiment(exp, opt, app)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", exp, err)
		}
		figMs[exp] += d
		report.WriteString(txt)
		report.WriteString("\n")
	}
	return report.Bytes(), nil
}

// storeCounts reads an observer's store hit and miss counters.
func storeCounts(o *obs.Observer) (hits, misses float64) {
	snap := o.Proc.Snapshot()
	if m, ok := snap.Get("store.hits"); ok {
		hits = m.Value
	}
	if m, ok := snap.Get("store.misses"); ok {
		misses = m.Value
	}
	return hits, misses
}

// experimentMetrics reports the per-figure times, the store's contents
// and the store hit ratio of the experiment spans.
func (b *bench) experimentMetrics(figMs map[string]time.Duration, hits, misses float64, store string) error {
	for _, f := range []string{"fig2", "fig3", "fig8", "fig9", "fig10", "fig11"} {
		b.set("experiments."+f+"_ms", "ms", ms(figMs[f]))
	}
	b.set("store.hit_ratio", "ratio", hits/math.Max(hits+misses, 1))
	entries, err := os.ReadDir(store)
	if err != nil {
		return err
	}
	var records, size float64
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".run") {
			continue
		}
		fi, err := os.Stat(filepath.Join(store, e.Name()))
		if err != nil {
			return err
		}
		records++
		size += float64(fi.Size())
	}
	b.set("store.records", "count", records)
	b.set("store.bytes", "bytes", size)
	return nil
}

// layerReplays drives every layer below vmm from the harness on the
// workload's programs: the interpreter runs each program's short trace,
// and what it executed feeds the decoder, cracker, translators,
// executor, timing engine and the cache and predictor models. Each
// layer is timed over passes repeated for cfg.LayerBudget and reports
// the median time per unit of work; counts come from one pass and
// repeat exactly.
func (b *bench) layerReplays(tr *tracer, progs []program) error {
	root := tr.open("replay", -1)
	defer tr.close(root)
	var steps uint64
	var stepTime time.Duration
	var decode, crk, bbtT, sbtT, fisaT, timT, cacheT, bpT []float64
	var nBBT, nSBT float64
	for _, p := range progs {
		ex, err := execute(p.Prog, shortInstrs(p.Scale))
		if err != nil {
			return fmt.Errorf("%s: %w", p.App, err)
		}
		steps += ex.steps
		stepTime += ex.wall
		name := fmt.Sprintf("%s/%d", p.App, p.Scale)
		budget := b.cfg.LayerBudget
		insts := make([]x86.Inst, len(ex.pcs))
		if err := perUnit(tr, "x86.Decode "+name, root, budget, &decode, func() (int, error) {
			for i, pc := range ex.pcs {
				in, err := x86.DecodeMem(ex.mem, pc)
				if err != nil {
					return 0, err
				}
				insts[i] = in
			}
			return len(ex.pcs), nil
		}); err != nil {
			return err
		}
		buf := make([]fisa.MicroOp, 0, 64)
		if err := perUnit(tr, "crack.Crack "+name, root, budget, &crk, func() (int, error) {
			for i, pc := range ex.pcs {
				var err error
				if buf, _, err = crack.Crack(buf[:0], &insts[i], pc); err != nil {
					return 0, err
				}
			}
			return len(ex.pcs), nil
		}); err != nil {
			return err
		}
		var scratch bbt.Scratch
		if err := perUnit(tr, "bbt.Translate "+name, root, budget, &bbtT, func() (int, error) {
			for _, pc := range ex.blocks {
				if _, err := scratch.Translate(ex.mem, pc, bbt.DefaultConfig); err != nil {
					return 0, err
				}
			}
			return len(ex.blocks), nil
		}); err != nil {
			return err
		}
		nBBT += float64(len(ex.blocks))
		var former sbt.Former
		if err := perUnit(tr, "sbt.Form "+name, root, budget, &sbtT, func() (int, error) {
			for _, pc := range ex.hot {
				if _, err := former.Form(ex.mem, pc, ex.edges, sbt.DefaultConfig); err != nil {
					return 0, err
				}
			}
			return len(ex.hot), nil
		}); err != nil {
			return err
		}
		nSBT += float64(len(ex.hot))
		if err := b.replayBlocks(tr, root, name, p.Prog, ex, &fisaT, &timT, &cacheT, &bpT); err != nil {
			return err
		}
	}
	b.set("interp.steps", "count", float64(steps))
	b.set("interp.step_ns", "ns", float64(stepTime)/float64(steps))
	b.set("x86.decode_ns", "ns", median(decode))
	b.set("crack.ns_per_instr", "ns", median(crk))
	b.set("bbt.translate_ns", "ns", median(bbtT))
	b.set("bbt.translations", "count", nBBT)
	b.set("sbt.form_us", "us", median(sbtT)/1e3)
	b.set("sbt.translations", "count", nSBT)
	b.set("fisa.exec_ns_per_uop", "ns", median(fisaT))
	b.set("timing.execblock_ns_per_uop", "ns", median(timT))
	b.set("cache.access_ns", "ns", median(cacheT))
	b.set("bpred.cond_ns", "ns", median(bpT))
	return nil
}

// execution is what one interpreted short trace touched: the distinct
// instruction addresses, the basic-block entries and how often each ran,
// the branch edges, and a sample of architected states at block
// entries for re-executing translated blocks.
type execution struct {
	mem    *x86.Memory
	steps  uint64
	wall   time.Duration // the timed interpreter pass
	pcs    []uint32      // distinct instruction addresses, sorted
	blocks []uint32      // distinct block entries, sorted
	hot    []uint32      // block entries that ran at least hotEntries times
	edges  *profile.EdgeProfile
	states []x86.State // sampled block-entry states
}

// hotEntries is the entry count that makes a block a superblock head
// in the replay: the interpreted strategies' hot threshold.
const hotEntries = 25

// maxStates bounds the block-entry states sampled per program.
const maxStates = 4096

// execute interprets a program's first n instructions twice: once
// timed, with nothing but interp.Step in the loop, and once recording
// what ran.
func execute(p *workload.Program, n uint64) (*execution, error) {
	ex := &execution{edges: profile.NewEdgeProfile()}
	m := interp.New(p.InitState(), p.Memory())
	start := time.Now()
	for ex.steps < n && !m.Halted {
		if _, err := m.Step(); err != nil {
			return nil, err
		}
		ex.steps++
	}
	ex.wall = time.Since(start)

	st := p.InitState()
	ex.mem = p.Memory()
	m = interp.New(st, ex.mem)
	pcs := map[uint32]bool{}
	entries := map[uint32]int{st.EIP: 1}
	var all []x86.State
	for i := uint64(0); i < n && !m.Halted; i++ {
		pc := st.EIP
		pcs[pc] = true
		in, err := m.Step()
		if err != nil {
			return nil, err
		}
		switch in.Op {
		case x86.JCC, x86.JMP, x86.CALL, x86.RET:
			ex.edges.Record(pc, st.EIP)
			entries[st.EIP]++
			if len(all) < 64*maxStates {
				all = append(all, *st)
			}
		}
	}
	ex.pcs = sortedKeys(pcs)
	for pc, c := range entries {
		ex.blocks = append(ex.blocks, pc)
		if c >= hotEntries {
			ex.hot = append(ex.hot, pc)
		}
	}
	sort.Slice(ex.blocks, func(i, j int) bool { return ex.blocks[i] < ex.blocks[j] })
	sort.Slice(ex.hot, func(i, j int) bool { return ex.hot[i] < ex.hot[j] })
	stride := max(1, len(all)/maxStates)
	for i := 0; i < len(all); i += stride {
		ex.states = append(ex.states, all[i])
	}
	return ex, nil
}

func sortedKeys(m map[uint32]bool) []uint32 {
	out := make([]uint32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// access and outcome record the memory and branch streams of the
// translated-block replay, for the cache and predictor models.
type access struct {
	addr  uint32
	write bool
}

type outcome struct {
	pc    uint32
	taken bool
}

type recorder struct {
	accesses []access
	outcomes []outcome
}

func (r *recorder) OnLoad(addr uint32, _ uint8)  { r.accesses = append(r.accesses, access{addr, false}) }
func (r *recorder) OnStore(addr uint32, _ uint8) { r.accesses = append(r.accesses, access{addr, true}) }
func (r *recorder) OnBranch(pc uint32, taken bool) {
	r.outcomes = append(r.outcomes, outcome{pc, taken})
}

// replayBlocks re-executes the BBT translation of each sampled block
// from its recorded entry state: through fisa.Exec alone, through the
// fused timing.Engine.ExecBlock, and once with probes to record the
// memory and branch streams the cache and predictor models replay.
// Execution stops at the block's first exit or callout. Memory is the
// program's initial image, not the image the state was sampled against,
// so a block whose loads now fault is skipped.
func (b *bench) replayBlocks(tr *tracer, root int, name string, p *workload.Program, ex *execution, fisaT, timT, cacheT, bpT *[]float64) error {
	params := machine.Config(machine.VMSoft).Timing
	trans := map[uint32]*codecache.Translation{}
	for _, st := range ex.states {
		if trans[st.EIP] != nil {
			continue
		}
		t, err := bbt.Translate(ex.mem, st.EIP, bbt.DefaultConfig)
		if err != nil {
			return err
		}
		timing.AnalyzeWith(t, params)
		trans[st.EIP] = t
	}
	mem := p.Memory()
	var nst fisa.NativeState
	// run executes every sampled block once and returns the micro-ops
	// executed.
	run := func(exec func(t *codecache.Translation, out *fisa.ExecStats) error) int {
		uops := 0
		for i := range ex.states {
			nst.LoadArch(&ex.states[i])
			var st fisa.ExecStats
			if exec(trans[ex.states[i].EIP], &st) == nil {
				uops += st.Uops
			}
		}
		return uops
	}
	rec := &recorder{}
	recEnv := &fisa.Env{St: &nst, Mem: mem, Probe: rec, Branch: rec}
	if run(func(t *codecache.Translation, out *fisa.ExecStats) error {
		_, _, err := fisa.Exec(recEnv, t.Uops, 0, out)
		return err
	}) == 0 {
		return nil
	}
	env := &fisa.Env{St: &nst, Mem: mem}
	if err := perUnit(tr, "fisa.Exec "+name, root, b.cfg.LayerBudget, fisaT, func() (int, error) {
		return run(func(t *codecache.Translation, out *fisa.ExecStats) error {
			_, _, err := fisa.Exec(env, t.Uops, 0, out)
			return err
		}), nil
	}); err != nil {
		return err
	}
	if err := perUnit(tr, "timing.ExecBlock "+name, root, b.cfg.LayerBudget, timT, func() (int, error) {
		eng := timing.NewEngine(params)
		return run(func(t *codecache.Translation, out *fisa.ExecStats) error {
			_, _, err := eng.ExecBlock(&nst, mem, t, 0, out)
			return err
		}), nil
	}); err != nil {
		return err
	}
	if err := perUnit(tr, "cache.Access "+name, root, b.cfg.LayerBudget, cacheT, func() (int, error) {
		c := cache.Table2().L1D
		for _, a := range rec.accesses {
			c.Access(a.addr, a.write)
		}
		return len(rec.accesses), nil
	}); err != nil {
		return err
	}
	return perUnit(tr, "bpred.Cond "+name, root, b.cfg.LayerBudget, bpT, func() (int, error) {
		p := bpred.New(bpred.DefaultConfig)
		for _, o := range rec.outcomes {
			p.Cond(o.pc, o.taken)
		}
		return len(rec.outcomes), nil
	})
}

// perUnit times pass in a span for budget (at least three passes) and
// appends the median nanoseconds per unit of work a pass did. A pass
// that did no work records nothing.
func perUnit(tr *tracer, name string, parent int, budget time.Duration, out *[]float64, pass func() (units int, err error)) error {
	_, err := tr.do(name, parent, func() error {
		var per []float64
		start := time.Now()
		for len(per) < 3 || time.Since(start) < budget {
			t0 := time.Now()
			n, err := pass()
			if err != nil || n == 0 {
				return err
			}
			per = append(per, float64(time.Since(t0))/float64(n))
		}
		*out = append(*out, median(per))
		return nil
	})
	return err
}

// codecacheReplay runs a program's long trace on VM.soft, then saves,
// parses and eagerly restores its translations (the CCVM2 persist path
// warm start uses).
func (b *bench) codecacheReplay(tr *tracer, p program) error {
	root := tr.open("codecache "+p.App, -1)
	defer tr.close(root)
	cfg := machine.Config(machine.VMSoft)
	vm := vmm.New(cfg, p.Prog.Memory(), p.Prog.InitState())
	if _, err := vm.Run(longInstrs(p.Scale)); err != nil {
		return err
	}
	bc, sc := vm.Caches()
	b.set("codecache.flushes", "count", float64(bc.Stats().Flushes+sc.Stats().Flushes))
	var data []byte
	var save, parse []float64
	if err := perUnit(tr, "codecache.Save", root, b.cfg.LayerBudget, &save, func() (int, error) {
		var buf bytes.Buffer
		err := vm.SaveTranslations(&buf)
		data = buf.Bytes()
		return 1, err
	}); err != nil {
		return err
	}
	var snap *codecache.Snapshot
	if err := perUnit(tr, "codecache.ParseSnapshot", root, b.cfg.LayerBudget, &parse, func() (int, error) {
		var err error
		snap, err = codecache.ParseSnapshot(data)
		return 1, err
	}); err != nil {
		return err
	}
	b.set("codecache.save_ms", "ms", save[0]/1e6)
	b.set("codecache.snapshot_bytes", "bytes", float64(len(data)))
	b.set("codecache.parse_ms", "ms", parse[0]/1e6)
	wcfg := cfg
	wcfg.WarmStart = vmm.WarmEager
	_, err := tr.do("vmm.Restore", root, func() error {
		var ts []float64
		start := time.Now()
		for len(ts) < 3 || time.Since(start) < b.cfg.LayerBudget {
			w := vmm.New(wcfg, p.Prog.Memory(), p.Prog.InitState())
			t0 := time.Now()
			if _, err := w.Restore(snap); err != nil {
				return err
			}
			ts = append(ts, float64(time.Since(t0)))
		}
		b.set("codecache.restore_ms", "ms", median(ts)/1e6)
		return nil
	})
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
