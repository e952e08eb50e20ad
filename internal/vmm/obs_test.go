package vmm

import (
	"reflect"
	"testing"

	"codesignvm/internal/obs"
)

// runWithSink simulates one observed run and returns the result plus
// the captured event stream.
func runWithSink(t *testing.T, cfg Config, seed int64, budget uint64) (*Result, []obs.Event) {
	t.Helper()
	sink := obs.NewCollectSink()
	vm := New(cfg, freshMemory(buildProgram(seed), seed), initState())
	vm.SetObserver(obs.NewRecorder("test", sink))
	res, err := vm.Run(budget)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return res, sink.Events()
}

// countKind tallies one event kind in a stream.
func countKind(evs []obs.Event, k obs.EventKind) int {
	n := 0
	for _, e := range evs {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// TestObsLifecycleEvents drives the rare VM policy events — SBT
// promotion, BBT/SBT cache flushes, shadow eviction — and asserts each
// one reaches the sink as its lifecycle event.
func TestObsLifecycleEvents(t *testing.T) {
	t.Run("cache-flushes", func(t *testing.T) {
		flushes := 0
		for seed := int64(1); seed <= 4; seed++ {
			cfg := DefaultConfig(StratSoft)
			cfg.HotThreshold = 12
			cfg.BBTCacheSize = 256
			cfg.SBTCacheSize = 512
			_, evs := runWithSink(t, cfg, seed, 4_000_000)
			if countKind(evs, obs.EvSBTPromote) == 0 {
				t.Fatalf("seed %d: no SBT promotion exercised", seed)
			}
			flushes += countKind(evs, obs.EvCacheFlush)
		}
		if flushes == 0 {
			t.Fatal("no cache flush exercised across the seed set")
		}
	})
	t.Run("shadow-eviction", func(t *testing.T) {
		cfg := DefaultConfig(StratInterp)
		cfg.HotThreshold = 5
		cfg.ShadowCap = 8
		_, evs := runWithSink(t, cfg, 2, 4_000_000)
		if countKind(evs, obs.EvShadowEvict) == 0 {
			t.Fatal("no shadow eviction exercised")
		}
	})
}

// TestObservedMatchesUnobserved: attaching a recorder must not change
// any reported simulation result — observability is purely
// observational. Everything except the Metrics snapshot itself must be
// byte-identical to an uninstrumented run.
func TestObservedMatchesUnobserved(t *testing.T) {
	for _, strat := range []Strategy{StratSoft, StratBE, StratInterp} {
		cfg := DefaultConfig(strat)
		cfg.HotThreshold = 12
		if strat == StratInterp {
			cfg.HotThreshold = 5
		}
		plain := func() *Result {
			vm := New(cfg, freshMemory(buildProgram(5), 5), initState())
			res, err := vm.Run(4_000_000)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}()
		observed, _ := runWithSink(t, cfg, 5, 4_000_000)
		if plain.Metrics != nil {
			t.Fatal("uninstrumented run grew a metrics snapshot")
		}
		if observed.Metrics == nil {
			t.Fatal("instrumented run has no metrics snapshot")
		}
		if m, ok := observed.Metrics.Get("vm.run.instrs"); !ok || uint64(m.Value) != observed.Instrs {
			t.Fatalf("mirrored instrs metric wrong: %+v vs %d", m, observed.Instrs)
		}
		clone := *observed
		clone.Metrics = nil
		if !reflect.DeepEqual(plain, &clone) {
			t.Fatalf("%v: observed run changed reported results\nplain:    %+v\nobserved: %+v", strat, plain, &clone)
		}
	}
}

// TestObsDisabledAllocFree pins the disabled-observability cost
// contract on the dispatch hot path: with no recorder attached, the
// obs hooks are single nil checks and steady-state simulation stays
// allocation-free (the run epilogue's amortized sample append is the
// only permitted allocation source). This is the deterministic half of
// the CI overhead gate (scripts/ci.sh); the timing half is the manual
// A/B against the PR-2 benchmarks recorded in EXPERIMENTS.md.
func TestObsDisabledAllocFree(t *testing.T) {
	code := buildHotLoop(false)
	cfg := DefaultConfig(StratSoft)
	vm := New(cfg, freshMemory(code, 1), initState())
	budget := uint64(500_000)
	if _, err := vm.Run(budget); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		budget += 2000
		if _, err := vm.Run(budget); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0.25 {
		t.Fatalf("disabled-observability hot path allocates %.2f/op, want ~0", allocs)
	}
}

// BenchmarkObsModes compares steady-state simulation with observability
// disabled, metrics-only, and with a live JSONL event stream. Run
// manually (or at 1x from ci.sh) to see the per-mode cost.
func BenchmarkObsModes(b *testing.B) {
	modes := []struct {
		name string
		rec  func() *obs.Recorder
	}{
		{"disabled", func() *obs.Recorder { return nil }},
		{"metrics", func() *obs.Recorder { return obs.NewRecorder("bench", nil) }},
		{"jsonl", func() *obs.Recorder { return obs.NewRecorder("bench", obs.NewJSONLSink(discardWriter{})) }},
	}
	code := buildHotLoop(false)
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			cfg := DefaultConfig(StratSoft)
			cfg.NoStartupSamples = true
			vm := New(cfg, freshMemory(code, 1), initState())
			vm.SetObserver(m.rec())
			budget := uint64(500_000)
			if _, err := vm.Run(budget); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				budget += 2000
				if _, err := vm.Run(budget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }
