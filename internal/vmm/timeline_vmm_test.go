package vmm

import (
	"testing"

	"codesignvm/internal/obs"
)

// runObserved simulates one run with timeline sampling enabled and the
// given sink attached, returning the result and the run's recorder.
func runObserved(t *testing.T, cfg Config, seed int64, budget uint64, sink obs.Sink) (*Result, *obs.Recorder) {
	t.Helper()
	o := obs.NewObserver(sink)
	o.EnableTimeline(obs.TimelineSpec{IntervalCycles: 5_000, MaxSlices: 64})
	rec := o.NewRun("test")
	vm := New(cfg, freshMemory(buildProgram(seed), seed), initState())
	vm.SetObserver(rec)
	res, err := vm.Run(budget)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return res, rec
}

// TestTimelineShowsStartupTransient pins the paper's phenomenon as seen
// through the sampler: early intervals are translation-dominated with
// low IPC; once the hotspot is promoted, late intervals run mostly SBT
// code at higher IPC.
func TestTimelineShowsStartupTransient(t *testing.T) {
	cfg := DefaultConfig(StratSoft)
	o := obs.NewObserver(nil)
	o.EnableTimeline(obs.TimelineSpec{IntervalCycles: 10_000, MaxSlices: 512})
	rec := o.NewRun("transient")
	vm := New(cfg, freshMemory(buildHotLoop(false), 1), initState())
	vm.SetObserver(rec)
	if _, err := vm.Run(2_000_000); err != nil {
		t.Fatal(err)
	}
	rows := rec.Timeline().Rows()
	if len(rows) < 4 {
		t.Fatalf("only %d timeline rows", len(rows))
	}
	first, last := rows[0], rows[len(rows)-2] // -2: skip the partial final slice
	if first.IPC >= last.IPC {
		t.Fatalf("no startup transient: first interval IPC %.3f >= late %.3f", first.IPC, last.IPC)
	}
	if first.XlateCycles == 0 {
		t.Fatal("first interval shows no translation cycles")
	}
	if last.SBTInstrs == 0 {
		t.Fatal("late interval shows no SBT instructions despite a hot loop")
	}
	if last.SBTUsed == 0 || last.BBTUsed == 0 {
		t.Fatalf("cache occupancy gauges empty at steady state: %+v", last)
	}
}

// TestObservedMatchesUnobservedWithTimeline extends the PR-3 invariant
// to the sampler: attaching a timeline-enabled recorder must not change
// any reported simulation result.
func TestObservedMatchesUnobservedWithTimeline(t *testing.T) {
	cfg := DefaultConfig(StratSoft)
	cfg.HotThreshold = 12
	plain := func() *Result {
		vm := New(cfg, freshMemory(buildProgram(5), 5), initState())
		res, err := vm.Run(4_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}()
	observed, rec := runObserved(t, cfg, 5, 4_000_000, nil)
	if rec.Timeline().Len() == 0 {
		t.Fatal("timeline sampled nothing")
	}
	clone := *observed
	clone.Metrics = nil
	if plain.Cycles != clone.Cycles || plain.Instrs != clone.Instrs ||
		plain.Cat != clone.Cat || plain.BBTTranslations != clone.BBTTranslations ||
		plain.SBTTranslations != clone.SBTTranslations {
		t.Fatalf("timeline sampling changed reported results\nplain:    %+v\nobserved: %+v", plain, &clone)
	}
}
