package vmm

import (
	"testing"

	"codesignvm/internal/obs"
	"codesignvm/internal/obs/attrib"
)

// attribRecorder mints a recorder with cycle attribution enabled,
// bucketing the test code segment with milestones inside the budget.
func attribRecorder(budget uint64) *obs.Recorder {
	o := obs.NewObserver(nil)
	o.EnableAttrib(attrib.Spec{
		RegionBase: tCodeBase,
		Milestones: []uint64{budget / 10, budget / 2, budget},
	})
	return o.NewRun("attrib-test")
}

// catSum evaluates the invariant's left side: the fixed-order float64
// sum of the per-category attribution.
func catSum(cat [attrib.NumCategories]float64) float64 {
	sum := 0.0
	for _, v := range cat {
		sum += v
	}
	return sum
}

// checkAttribExact asserts the central attribution invariant on one
// finished run: a snapshot exists, and its categories sum to the run's
// total simulated cycles bit-for-bit (==, not a tolerance).
func checkAttribExact(t *testing.T, res *Result) {
	t.Helper()
	a := res.Attrib
	if a == nil {
		t.Fatal("attribution enabled but Result.Attrib is nil")
	}
	if a.TotalCycles != res.Cycles {
		t.Fatalf("snapshot total %v != run cycles %v", a.TotalCycles, res.Cycles)
	}
	if got := catSum(a.Cat); got != res.Cycles {
		t.Errorf("category sum %v != run cycles %v (diff %g)", got, res.Cycles, got-res.Cycles)
	}
	if len(a.Regions) == 0 {
		t.Error("no region rows attributed")
	}
	for i := 1; i < len(a.Phases); i++ {
		if a.Phases[i].Cycles < a.Phases[i-1].Cycles {
			t.Errorf("phase %d cycles %v < phase %d cycles %v (must be cumulative)",
				i, a.Phases[i].Cycles, i-1, a.Phases[i-1].Cycles)
		}
	}
}

// TestAttribExactSumAcrossStrategies pins the invariant for every
// translation strategy: whatever mix of interpretation, BBT, SBT and
// assists a run uses, every simulated cycle lands in exactly one
// attribution category.
func TestAttribExactSumAcrossStrategies(t *testing.T) {
	code := buildProgram(7)
	for _, strat := range []Strategy{StratRef, StratInterp, StratSoft, StratBE, StratFE, StratStaged3} {
		t.Run(strat.String(), func(t *testing.T) {
			cfg := DefaultConfig(strat)
			budget := uint64(300_000)
			vm := New(cfg, freshMemory(code, 7), initState())
			vm.SetObserver(attribRecorder(budget))
			res, err := vm.Run(budget)
			if err != nil {
				t.Fatal(err)
			}
			checkAttribExact(t, res)
		})
	}
}

// TestAttribExactSumWarmModes pins the invariant for warm-started
// runs, whose restore-preload and restore-fault cycles flow through
// attribution paths cold runs never touch.
func TestAttribExactSumWarmModes(t *testing.T) {
	seed := int64(21)
	code := buildProgram(seed)
	cfg := DefaultConfig(StratSoft)
	cfg.HotThreshold = 12
	budget := uint64(5_000_000)
	snap, _ := warmSnapshot(t, cfg, code, seed, budget)

	for _, mode := range []WarmStart{WarmLazy, WarmHybrid, WarmEager} {
		t.Run(mode.String(), func(t *testing.T) {
			wcfg := cfg
			wcfg.WarmStart = mode
			vm := New(wcfg, freshMemory(code, seed), initState())
			vm.SetObserver(attribRecorder(budget))
			if _, err := vm.Restore(snap); err != nil {
				t.Fatal(err)
			}
			res, err := vm.Run(budget)
			if err != nil {
				t.Fatal(err)
			}
			checkAttribExact(t, res)
			a := res.Attrib
			restore := a.Cat[attrib.RestorePreload] + a.Cat[attrib.RestoreFault]
			if restore <= 0 {
				t.Errorf("warm %v run attributed no restore cycles", mode)
			}
		})
	}
}

// TestAttribBitIdentical: the attribution snapshot is a pure function
// of the run — two fresh VMs on the same program produce identical
// categories and region rows — and arming the profiler does not move
// the simulated cycle count.
func TestAttribBitIdentical(t *testing.T) {
	code := buildProgram(11)
	budget := uint64(300_000)
	run := func(profiled bool) *Result {
		vm := New(DefaultConfig(StratSoft), freshMemory(code, 11), initState())
		if profiled {
			vm.SetObserver(attribRecorder(budget))
		}
		res, err := vm.Run(budget)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b, plain := run(true), run(true), run(false)
	if a.Cycles != plain.Cycles {
		t.Fatalf("attribution changed simulated cycles: %v vs %v unprofiled", a.Cycles, plain.Cycles)
	}
	if a.Cycles != b.Cycles {
		t.Fatalf("repeat run changed simulated cycles: %v vs %v", a.Cycles, b.Cycles)
	}
	if a.Attrib.Cat != b.Attrib.Cat {
		t.Errorf("repeat run changed attribution:\nfirst  %v\nsecond %v", a.Attrib.Cat, b.Attrib.Cat)
	}
	if len(a.Attrib.Regions) != len(b.Attrib.Regions) {
		t.Fatalf("repeat run changed region count: %d vs %d", len(a.Attrib.Regions), len(b.Attrib.Regions))
	}
	for i := range a.Attrib.Regions {
		if a.Attrib.Regions[i] != b.Attrib.Regions[i] {
			t.Errorf("region row %d differs across repeat runs", i)
		}
	}
}

// TestAttribDisabledZeroAlloc is the disabled-cost contract's alloc
// half: with attribution off (the default), the steady-state dispatch
// loop must not allocate — the profiler hooks are nil-guarded pointer
// checks, never live objects. (TestObsDisabledZeroAlloc covers the
// wider observability layer; this gate names the attribution hooks
// added to charge/SpanOpen/SpanClose specifically.)
func TestAttribDisabledZeroAlloc(t *testing.T) {
	vm, budget := steadyStateVM(t, false)
	allocs := testing.AllocsPerRun(100, func() {
		budget += 2000
		if _, err := vm.Run(budget); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("attribution-disabled steady state: %v allocs/op, want 0", allocs)
	}
}
