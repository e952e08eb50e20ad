package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"codesignvm/internal/experiments"
	"codesignvm/internal/interp"
	"codesignvm/internal/machine"
	"codesignvm/internal/obs"
	"codesignvm/internal/workload"
)

// recordDigests regenerates digests.json: the CLI's stripped-report
// digest of every input the seeds can draw (every sweep app subset of
// the benchmark's size, and every one-app subset the smoke test runs,
// at sweepScale; every serve-mix spec) and the exact instruction
// counts. Run it from the repository root with
//
//	bash perfbench/run.sh --record
//
// only when a change alters simulated results on purpose.
func recordDigests(root string) error {
	// Not newBench: the digest table it loads is the one being replaced.
	b := &bench{cfg: defaultConfig, root: root, vmsim: filepath.Join(root, ".bench_build", "vmsim")}
	if err := b.build(); err != nil {
		return err
	}
	t := digestTable{Sweep: map[string]string{}, SweepInstrs: map[string]uint64{},
		Serve: map[string]string{}, ServeInstrs: map[string]uint64{}}

	for _, app := range workload.Names() {
		n, err := sweepAppInstrs(app, sweepScale)
		if err != nil {
			return err
		}
		t.SweepInstrs[appKey(sweepScale, app)] = n
		if n, err = serveAppInstrs(app, serveScale); err != nil {
			return err
		}
		t.ServeInstrs[appKey(serveScale, app)] = n
	}

	type job struct {
		key  string
		args []string
		set  func(key, sum string)
	}
	var mu sync.Mutex
	var todo []job
	for _, k := range []int{1, b.cfg.SweepApps} {
		for _, apps := range subsets(workload.Names(), k) {
			todo = append(todo, job{sweepKey(sweepScale, apps), sweepArgs(sweepScale, apps, ""),
				func(k, sum string) { t.Sweep[k] = sum }})
		}
	}
	for _, exp := range serveExps {
		for _, app := range workload.Names() {
			s := jobSpec{Exp: exp, Apps: []string{app}, App: app, Scale: serveScale}
			todo = append(todo, job{s.key(), s.cliArgs(), func(k, sum string) { t.Serve[k] = sum }})
		}
	}
	// Two CLI processes at a time; each runs on default flags.
	work := make(chan job)
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				out, _, err := runProc(root, b.vmsim, j.args...)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", j.key, err)
					for range work {
					}
					return
				}
				mu.Lock()
				j.set(j.key, reportDigest(out))
				mu.Unlock()
			}
		}()
	}
	for i, j := range todo {
		if i%20 == 0 {
			fmt.Fprintf(os.Stderr, "perfbench: recording %d/%d\n", i, len(todo))
		}
		work <- j
	}
	close(work)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return err
	}
	data, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(root, "perfbench", "digests.json"), append(data, '\n'), 0o644)
}

// sweepAppInstrs counts the simulated x86 instructions one sweep
// retires for an app: its seven grid cells plus Fig. 3's interpreter
// profile over the short trace.
func sweepAppInstrs(app string, scale int) (uint64, error) {
	p, err := workload.App(app, scale)
	if err != nil {
		return 0, err
	}
	var n uint64
	for _, c := range []struct {
		models []machine.Model
		budget uint64
	}{{longModels, longInstrs(scale)}, {shortModels, shortInstrs(scale)}} {
		for _, m := range c.models {
			res, err := machine.RunConfig(defaultFlagConfig(m), p, c.budget)
			if err != nil {
				return 0, err
			}
			n += res.Instrs
		}
	}
	steps, err := interp.New(p.InitState(), p.Memory()).Run(shortInstrs(scale))
	return n + steps, err
}

// serveAppInstrs counts the simulated x86 instructions serve-mix's
// specs of one app run in a server: the specs share one run cache, so
// every distinct vmm run counts once, and fig3 adds its interpreter
// profile, which no cache holds.
func serveAppInstrs(app string, scale int) (uint64, error) {
	experiments.ResetRunCacheForTest()
	defer experiments.ResetRunCacheForTest()
	var n uint64
	for _, exp := range serveExps {
		// A private observer per job, as the service gives each job;
		// a cache hit starts no observed run.
		o := obs.NewObserver(nil)
		opt := experiments.Options{Scale: scale, Apps: []string{app}, Obs: o}
		if _, err := experiments.RunExperiment(exp, opt, app); err != nil {
			return 0, err
		}
		for _, r := range o.Status(nil).Runs {
			n += r.Instrs
		}
	}
	p, err := workload.App(app, scale)
	if err != nil {
		return 0, err
	}
	steps, err := interp.New(p.InitState(), p.Memory()).Run(shortInstrs(scale))
	return n + steps, err
}

// subsets lists every k-element subset of names, each in names' order.
func subsets(names []string, k int) [][]string {
	var out [][]string
	var cur []string
	var rec func(i int)
	rec = func(i int) {
		if len(cur) == k {
			out = append(out, append([]string(nil), cur...))
			return
		}
		for j := i; j < len(names); j++ {
			cur = append(cur, names[j])
			rec(j + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}
