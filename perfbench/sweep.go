package main

import (
	"fmt"
	"os"
	"time"
)

// sweepCold runs `vmsim -exp sweep` against a fresh empty store,
// again and again for the run's duration: every grid cell is
// simulated and published. After the measured runs, the same sweep
// against the last run's store must print the same bytes (cold and
// warm agree).
func (b *bench) sweepCold() error {
	apps := sweepApps(b.seed, b.cfg.SweepApps)
	if err := b.setUp(func() (func(), error) { return nil, nil }); err != nil {
		return err
	}
	var runs []procStats
	var ref []byte
	store := ""
	deadline := time.Now().Add(b.seconds)
	for i := 0; i < b.cfg.MinIters || time.Now().Before(deadline); i++ {
		if store != "" {
			os.RemoveAll(store)
		}
		var err error
		if store, err = b.tempDir("store-"); err != nil {
			return err
		}
		out, st, err := b.vm(sweepArgs(sweepScale, apps, store)...)
		if b.checkSweep(&ref, out, apps, err, "cold sweep %d", i) {
			runs = append(runs, st)
		}
	}
	out, _, err := b.vm(sweepArgs(sweepScale, apps, store)...)
	b.checkSweep(&ref, out, apps, err, "warm re-run of the cold sweep")
	return b.sweepMetrics(runs, apps)
}

// sweepWarm fills a store once per set-up with a cold sweep, then runs
// the same sweep against the filled store for the run's duration:
// every grid cell is a store read.
func (b *bench) sweepWarm() error {
	apps := sweepApps(b.seed, b.cfg.SweepApps)
	var ref []byte
	var store string
	err := b.setUp(func() (func(), error) {
		var err error
		if store, err = b.tempDir("store-"); err != nil {
			return nil, err
		}
		out, _, err := b.vm(sweepArgs(sweepScale, apps, store)...)
		if !b.checkSweep(&ref, out, apps, err, "store fill") {
			return nil, fmt.Errorf("filling the store failed")
		}
		dir := store
		return func() { os.RemoveAll(dir) }, nil
	})
	if err != nil {
		return err
	}
	var runs []procStats
	deadline := time.Now().Add(b.seconds)
	for i := 0; i < b.cfg.MinIters || time.Now().Before(deadline); i++ {
		out, st, err := b.vm(sweepArgs(sweepScale, apps, store)...)
		if b.checkSweep(&ref, out, apps, err, "warm sweep %d", i) {
			runs = append(runs, st)
		}
	}
	return b.sweepMetrics(runs, apps)
}

// checkSweep counts one sweep invocation. It fails on a non-zero exit,
// on report bytes that differ from the run's first report (*ref, set
// by the first good one) and on a digest that differs from the
// recorded one.
func (b *bench) checkSweep(ref *[]byte, out []byte, apps []string, runErr error, format string, args ...any) bool {
	what := fmt.Sprintf(format, args...)
	if runErr != nil {
		return b.op(false, "%s: %v", what, runErr)
	}
	if *ref != nil && !sameReport(*ref, out) {
		return b.op(false, "%s: report bytes differ from the run's first report", what)
	}
	key := sweepKey(sweepScale, apps)
	switch want, ok := b.dig.Sweep[key]; {
	case !ok:
		return b.op(false, "%s: no recorded digest for %s", what, key)
	case want != reportDigest(out):
		return b.op(false, "%s: report digest %s, recorded %s for %s", what, reportDigest(out), want, key)
	}
	if *ref == nil {
		*ref = out
	}
	return b.op(true, "")
}

// sweepMetrics turns the measured sweep processes into the end-to-end
// metrics.
func (b *bench) sweepMetrics(runs []procStats, apps []string) error {
	if len(runs) == 0 {
		return fmt.Errorf("no sweep succeeded")
	}
	var wall, cpu, rss []float64
	for _, r := range runs {
		wall = append(wall, r.Wall.Seconds())
		cpu = append(cpu, r.CPU.Seconds())
		rss = append(rss, float64(r.MaxRSS)/1e6)
	}
	b.set("wall_s", "s", median(wall))
	b.set("cpu_s", "s", median(cpu))
	b.set("peak_rss_mb", "MB", median(rss))
	p90 := nearestRank(wall, 90)
	b.note("apps %v at scale %d; %d sweeps measured; wall p90 %.4f s with %d of %d samples beyond it",
		apps, sweepScale, len(runs), p90.Value, p90.Beyond, p90.N)
	instrs, err := b.dig.sweepInstrs(sweepScale, apps)
	if err != nil {
		return err
	}
	b.set("host_ns_per_instr", "ns", median(wall)*1e9/float64(instrs))
	b.note("host_ns_per_instr divides wall_s by %d simulated x86 instructions (recorded, exact)", instrs)
	return nil
}
