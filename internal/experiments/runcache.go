package experiments

import (
	"fmt"
	"sync"

	"codesignvm/internal/codecache"
	"codesignvm/internal/machine"
	"codesignvm/internal/obs"
	"codesignvm/internal/vmm"
	"codesignvm/internal/workload"
)

// runKey identifies one deterministic simulation: the full machine
// configuration plus the workload identity and instruction budget.
// vmm.Config is a flat value type, so the key is comparable.
type runKey struct {
	cfg    vmm.Config
	app    string
	scale  int
	instrs uint64
	attrib string // attribution-spec key; "" when attribution is off
}

func newRunKey(cfg vmm.Config, app string, scale int, instrs uint64, attribKey string) runKey {
	return runKey{cfg, app, scale, instrs, attribKey}
}

// attribKey returns the canonical attribution-spec string of the
// options' observer ("" when attribution is off). It participates in
// the run-cache and store keys: attribution never changes simulated
// timing, but an attributing result carries extra payload a plain
// request must not be served (and vice versa).
func (o Options) attribKey() string { return o.Obs.AttribKey() }

// runEntry is a once-guarded cache slot: concurrent requests for the
// same simulation run it exactly once and the rest share the result.
type runEntry struct {
	once sync.Once
	res  *vmm.Result
	err  error
}

// runCache memoizes simulation results process-wide. Simulations are
// deterministic per key (programs are deterministic per (name, scale)
// and the simulator has no hidden state), so harnesses can share runs:
// Fig. 11 repeats Fig. 8's grid exactly, Fig. 9 shares its long-trace
// runs, and the ablation baseline is Fig. 10's VM.soft run. In a sweep
// that removes whole figures from the critical path. Options.Store
// extends the cache across processes via the disk store (store.go).
var runCache sync.Map // runKey -> *runEntry

// resetRunCacheForTest clears the in-process memoization so tests can
// force disk-store reads or fresh simulations.
func resetRunCacheForTest() {
	runCache.Range(func(k, _ any) bool {
		runCache.Delete(k)
		return true
	})
}

// runApp simulates cfg over a named application, memoized unless
// opt.FreshRuns is set. Callers receive a private shallow copy with
// its own Samples slice, so mutating a report's result cannot corrupt
// the cache.
func (o Options) runApp(cfg vmm.Config, app string, instrs uint64) (*vmm.Result, error) {
	return o.runAppWarm(cfg, app, instrs, nil)
}

// snapFunc lazily produces the warm-start snapshot a run restores
// from. It is called only when a simulation actually happens — run
// results served from the in-process cache or the disk store never
// build (or even load) a snapshot. nil means cold start.
type snapFunc func() (*codecache.Snapshot, error)

// runAppWarm is runApp with an optional warm-start snapshot source.
// Warm modes are distinct simulated configurations (cfg.WarmStart),
// so they occupy distinct cache slots and store keys automatically.
func (o Options) runAppWarm(cfg vmm.Config, app string, instrs uint64, snapFn snapFunc) (*vmm.Result, error) {
	scale := o.Scale
	if scale < 1 {
		scale = 1 // match workload.App's clamp so keys do not split
	}
	if o.FreshRuns {
		prog, err := workload.App(app, scale)
		if err != nil {
			return nil, err
		}
		res, err := o.runObserved(cfg, prog, app, instrs, snapFn)
		if err == nil {
			if s := o.store(); s != nil {
				// Fresh runs skip store reads but still publish: a later
				// process can reuse the work.
				s.save(runFileKey(cfg, app, scale, instrs, o.attribKey()), res)
			}
		}
		return res, err
	}
	e, _ := runCache.LoadOrStore(newRunKey(cfg, app, scale, instrs, o.attribKey()), new(runEntry))
	entry := e.(*runEntry)
	entry.once.Do(func() {
		entry.res, entry.err = o.simulateOrLoad(cfg, app, scale, instrs, snapFn)
	})
	if entry.err != nil {
		return nil, entry.err
	}
	return cloneResult(entry.res), nil
}

// simulateOrLoad fills one cache slot: from the disk store when
// enabled and warm, otherwise by simulating (single-flighted across
// processes through the store's heartbeat-refreshed lock file, and
// published back). Every store failure mode degrades to simulating;
// only workload errors and context cancellation propagate.
func (o Options) simulateOrLoad(cfg vmm.Config, app string, scale int, instrs uint64, snapFn snapFunc) (*vmm.Result, error) {
	s := o.store()
	var key string
	if s != nil {
		key = runFileKey(cfg, app, scale, instrs, o.attribKey())
		if res, _ := s.load(key); res != nil {
			o.obsStore(true, cfg, app)
			return res, nil
		}
		o.obsStore(false, cfg, app)
	}
	prog, err := workload.App(app, scale)
	if err != nil {
		return nil, err
	}
	if s == nil {
		return o.runObserved(cfg, prog, app, instrs, snapFn)
	}
	for attempt := 0; ; attempt++ {
		release, won, err := s.acquire(key, s.runPath(key))
		if err != nil {
			return nil, err // cancelled mid-wait
		}
		if !won {
			// Another process finished this run while we waited.
			if res, _ := s.load(key); res != nil {
				o.obsStore(true, cfg, app)
				return res, nil
			}
			if attempt < 2 {
				continue // result vanished (cleaned store?); re-contend
			}
			// The result keeps disappearing under us (aggressive GC,
			// flaky storage): stop trusting the store and simulate.
			release = func() {}
		} else if res, _ := s.load(key); res != nil {
			// Double-check under the lock: the result may have been
			// published between our miss and winning a just-freed lock.
			release()
			o.obsStore(true, cfg, app)
			return res, nil
		}
		res, err := o.runObserved(cfg, prog, app, instrs, snapFn)
		if err == nil {
			s.save(key, res) // best-effort publication
		}
		release()
		return res, err
	}
}

// obsTag labels a run's events and recorder: "model/app".
func (o Options) obsTag(cfg vmm.Config, app string) string {
	return fmt.Sprintf("%v/%s", cfg.Strategy, app)
}

// runObserved simulates one run, minting a per-run recorder and keeping
// the process-level run counters when observability is enabled. A
// non-nil snapFn supplies the warm-start snapshot, materialized only
// here — on the simulate path, never on a cache or store hit. A
// snapshot failure degrades the run to a cold start (snapFn reports
// nil in that case), never to an error: warm start is an accelerator
// of the simulated machine, and the run must still produce a report.
func (o Options) runObserved(cfg vmm.Config, prog *workload.Program, app string, instrs uint64, snapFn snapFunc) (*vmm.Result, error) {
	var snap *codecache.Snapshot
	if snapFn != nil && cfg.WarmStart != vmm.WarmOff {
		var err error
		if snap, err = snapFn(); err != nil {
			return nil, err
		}
	}
	if o.Obs == nil {
		return machine.RunConfigWarm(cfg, prog, instrs, nil, snap)
	}
	o.Obs.Proc.Counter("runs.started", "runs").Inc()
	res, err := machine.RunConfigWarm(cfg, prog, instrs, o.Obs.NewRun(o.obsTag(cfg, app)), snap)
	if err == nil {
		o.Obs.Proc.Counter("runs.done", "runs").Inc()
	}
	return res, err
}

// obsStore reports one disk-store lookup outcome.
func (o Options) obsStore(hit bool, cfg vmm.Config, app string) {
	if o.Obs == nil {
		return
	}
	if hit {
		o.Obs.Proc.Counter("store.hits", "loads").Inc()
		o.Obs.Emit(obs.EvStoreHit, o.obsTag(cfg, app), 0, 0, 0, 0)
	} else {
		o.Obs.Proc.Counter("store.misses", "loads").Inc()
		o.Obs.Emit(obs.EvStoreMiss, o.obsTag(cfg, app), 0, 0, 0, 0)
	}
}

// cloneResult copies a result deeply enough to hand out: Samples and
// Metrics are the reference-typed fields. (Metric bucket slices and
// the attribution snapshot are shared — both are immutable once taken.)
func cloneResult(r *vmm.Result) *vmm.Result {
	c := *r
	c.Samples = append([]vmm.Sample(nil), r.Samples...)
	c.Metrics = append(obs.Snapshot(nil), r.Metrics...)
	return &c
}
