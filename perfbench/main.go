// Command perfbench is the repository's end-to-end benchmark. It builds
// cmd/vmsim from source, drives the built binary on its default flags
// over three workloads, checks every report's bytes against recorded
// digests, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 12, "failed": 0, "metrics": {...}}
//
// Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 24 --trace 0
//
// --trace 0 measures the end-to-end metrics of BENCHMARK.json with no
// tracing; --trace 1 is a separate traced run that reports the
// per-layer metrics. README.md defines every workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"
)

// The workloads' fixed inputs: the scale of both sweeps, the scale of
// every serve-mix spec, and serve-mix's arrival rate.
const (
	sweepScale = 1600
	serveScale = 3200
	serveRate  = 4.5
)

// setUp repeats a workload's set-up at least cfg.Setups times and until
// setupBudget has been spent on them, at most maxSetups times: cheap
// set-ups get many samples, a store fill a few.
const (
	setupBudget = 4 * time.Second
	maxSetups   = 25
)

// config sizes the workloads. defaultConfig is the benchmark; the smoke
// test shrinks it.
type config struct {
	SweepApps    int // applications a seed picks for a sweep
	ServeApps    int // applications serve-mix specs name
	ServeMinJobs int // at least this many jobs per serve-mix run
	Setups       int // least set-ups per run; setup_s is their median
	MinIters     int // least measured sweeps per run
	// LayerBudget is the replay time each layer gets in a traced run.
	LayerBudget time.Duration
	// ReplayPrograms bounds the programs the traced run replays the
	// layers below vmm on.
	ReplayPrograms int
}

var defaultConfig = config{
	SweepApps:      9,
	ServeApps:      10,
	ServeMinJobs:   100,
	Setups:         3,
	MinIters:       3,
	LayerBudget:    400 * time.Millisecond,
	ReplayPrograms: 3,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one benchmark run: its inputs, the built binary, the
// operations attempted and failed, and the metrics measured.
type bench struct {
	cfg     config
	root    string // checkout root: go.mod and cmd/vmsim
	work    string // stores and scratch files, removed at exit
	vmsim   string // the built binary
	seed    int64
	seconds time.Duration
	dig     *digestTable

	attempted, failed int
	argv              []string // the vmsim argv of the measured runs
	metrics           map[string]metric
	notes             []string
}

func newBench(cfg config, root string, seed int64, seconds time.Duration) (*bench, error) {
	for _, p := range []string{"go.mod", filepath.Join("cmd", "vmsim")} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return nil, fmt.Errorf("%s is not a codesignvm checkout: %w", root, err)
		}
	}
	dig, err := loadDigests()
	if err != nil {
		return nil, err
	}
	out := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		return nil, err
	}
	return &bench{
		cfg: cfg, root: root, work: work, seed: seed, seconds: seconds, dig: dig,
		vmsim:   filepath.Join(out, "vmsim"),
		metrics: map[string]metric{},
	}, nil
}

// op counts one operation, and a failure when ok is false.
func (b *bench) op(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: failed operation: "+format+"\n", args...)
	}
	return ok
}

func (b *bench) set(name, unit string, v float64) { b.metrics[name] = metric{Value: v, Unit: unit} }

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// build compiles cmd/vmsim. Once the build cache is warm this is the
// up-to-date check every user's `go build` pays.
func (b *bench) build() error {
	cmd := exec.Command("go", "build", "-o", b.vmsim, "./cmd/vmsim")
	cmd.Dir = b.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building vmsim: %w: %s", err, tail(out, 2000))
	}
	return nil
}

// setUp runs the workload's set-up (a build plus prep) repeatedly, as
// the constants above say, and records the median as setup_s. Every
// set-up but the last is torn down, outside the timed part; the last
// one stays for the measured runs.
func (b *bench) setUp(prep func() (teardown func(), err error)) error {
	var times []float64
	spent := 0.0
	for i := 0; ; i++ {
		start := time.Now()
		if err := b.build(); err != nil {
			return err
		}
		teardown, err := prep()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		spent += times[i]
		if len(times) >= maxSetups || (len(times) >= b.cfg.Setups && spent >= setupBudget.Seconds()) {
			break
		}
		if teardown != nil {
			teardown()
		}
	}
	b.set("setup_s", "s", median(times))
	b.note("setup_s is the median of %d set-ups", len(times))
	return nil
}

// vm runs the built vmsim to completion from the checkout root.
func (b *bench) vm(args ...string) ([]byte, procStats, error) {
	b.argv = append([]string{"vmsim"}, args...)
	return runProc(b.root, b.vmsim, args...)
}

// tempDir makes a fresh empty directory under the run's work area.
func (b *bench) tempDir(prefix string) (string, error) { return os.MkdirTemp(b.work, prefix) }

var workloads = map[string]struct {
	run, trace func(*bench) error
}{
	"sweep-cold": {(*bench).sweepCold, (*bench).traceSweepCold},
	"sweep-warm": {(*bench).sweepWarm, (*bench).traceSweepWarm},
	"serve-mix":  {(*bench).serveMix, (*bench).traceServeMix},
}

func main() {
	name := flag.String("workload", "", "workload: sweep-cold, sweep-warm or serve-mix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Int("seconds", 24, "how long the run measures")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
	record := flag.Bool("record", false, "regenerate perfbench/digests.json from the CLI instead of benchmarking")
	flag.Parse()
	root, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	if *record {
		if err := recordDigests(root); err != nil {
			fail(err)
		}
		return
	}
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("usage: perfbench --workload {sweep-cold|sweep-warm|serve-mix} --seed N --seconds S --trace {0|1}"))
	}
	b, err := newBench(defaultConfig, root, *seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		fail(err)
	}
	run := w.run
	if *trace == 1 {
		run = w.trace
	}
	err = run(b)
	os.RemoveAll(b.work)
	if err != nil {
		fail(fmt.Errorf("%s: %w", *name, err))
	}
	if err := b.report(os.Stdout, *name, *trace == 1); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// benchSpec is the part of BENCHMARK.json the harness reads: the
// metrics each kind of run must print.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	s := &benchSpec{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// selected picks the metrics BENCHMARK.json lists for this kind of run
// (end-to-end untraced, per-layer traced), failing on any the run did
// not measure or measured in another unit.
func (b *bench) selected(traced bool) (map[string]metric, error) {
	spec, err := loadSpec(b.root)
	if err != nil {
		return nil, err
	}
	want := spec.EndToEnd
	if traced {
		want = spec.PerLayer
	}
	out := map[string]metric{}
	for _, w := range want {
		m, ok := b.metrics[w.Name]
		switch {
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", w.Name)
		case m.Unit != w.Unit:
			return nil, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return nil, fmt.Errorf("metric %s is not a number", w.Name)
		}
		out[w.Name] = m
	}
	return out, nil
}

// report prints the host block, the notes and every metric measured,
// then the result object, with the metrics BENCHMARK.json lists for
// this kind of run, as the last line.
func (b *bench) report(w io.Writer, name string, traced bool) error {
	host := collectHost(b.root, b.argv)
	if len(host.HostModeFlags) > 0 {
		return fmt.Errorf("vmsim ran with non-default host-mode flags %v", host.HostModeFlags)
	}
	metrics, err := b.selected(traced)
	if err != nil {
		return err
	}
	hj, err := json.Marshal(host)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "workload %s seed %d traced %v\nhost %s\n", name, b.seed, traced, hj)
	for _, n := range b.notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %16.6g %s\n", n, b.metrics[n].Value, b.metrics[n].Unit)
	}
	frac := float64(b.failed) / float64(max(b.attempted, 1))
	fmt.Fprintf(w, "failed_frac %g (%d of %d operations)\n", frac, b.failed, b.attempted)
	line, err := json.Marshal(result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
