package vmm

import (
	"bytes"
	"testing"

	"codesignvm/internal/codecache"
	"codesignvm/internal/x86"
)

// warmSnapshot runs a cold VM to completion and parses its saved
// translation caches into a warm-start snapshot. Returns the cold
// result for economics comparisons.
func warmSnapshot(t *testing.T, cfg Config, code []byte, seed int64, budget uint64) (*codecache.Snapshot, *Result) {
	t.Helper()
	vm := New(cfg, freshMemory(code, seed), initState())
	res, err := vm.Run(budget)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("cold run did not halt")
	}
	var buf bytes.Buffer
	if err := vm.SaveTranslations(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := codecache.ParseSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if snap.Sections != 2 || snap.Len() == 0 {
		t.Fatalf("snapshot: %d sections, %d entries", snap.Sections, snap.Len())
	}
	return snap, res
}

// TestWarmModesEquivalenceAndEconomics: each warm-start mode must
// reproduce the golden architected execution exactly while translating
// (almost) nothing and starting up in fewer simulated cycles than cold.
func TestWarmModesEquivalenceAndEconomics(t *testing.T) {
	seed := int64(21)
	code := buildProgram(seed)
	goldenSt, goldenMem, goldenN := goldenRun(t, code, seed, 5_000_000)

	cfg := DefaultConfig(StratSoft)
	cfg.HotThreshold = 12
	budget := goldenN + 1000
	snap, cold := warmSnapshot(t, cfg, code, seed, budget)

	for _, mode := range []WarmStart{WarmLazy, WarmHybrid, WarmEager} {
		t.Run(mode.String(), func(t *testing.T) {
			wcfg := cfg
			wcfg.WarmStart = mode
			mem := freshMemory(code, seed)
			vm := New(wcfg, mem, initState())
			n, err := vm.Restore(snap)
			if err != nil {
				t.Fatal(err)
			}
			if n != snap.Len() {
				t.Fatalf("restorable %d, want %d", n, snap.Len())
			}
			res, err := vm.Run(budget)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Halted || res.Instrs != goldenN {
				t.Fatalf("warm run: halted=%v instrs=%d want %d", res.Halted, res.Instrs, goldenN)
			}
			var final x86.State
			vm.nst.StoreArch(&final)
			final.EIP = goldenSt.EIP
			if !final.Equal(goldenSt) {
				t.Errorf("warm run diverged:\n golden R=%x F=%v\n got    R=%x F=%v",
					goldenSt.R, goldenSt.Flags, final.R, final.Flags)
			}
			compareMemories(t, "warm-"+mode.String(), goldenMem, mem)

			// Economics: restored instead of re-translated, and faster.
			if res.RestoredTranslations == 0 {
				t.Error("nothing restored")
			}
			if res.RestoredTranslations > uint64(snap.Len()) {
				t.Errorf("restored %d of a %d-entry snapshot", res.RestoredTranslations, snap.Len())
			}
			if mode == WarmEager && res.RestoredTranslations != uint64(snap.Len()) {
				t.Errorf("eager restored %d of %d", res.RestoredTranslations, snap.Len())
			}
			if mode == WarmLazy && res.RestoredTranslations == uint64(snap.Len()) {
				t.Log("lazy mode faulted the whole snapshot (tiny program; not an error)")
			}
			if res.BBTTranslations > cold.BBTTranslations/10 {
				t.Errorf("warm run still translated %d blocks (cold: %d)",
					res.BBTTranslations, cold.BBTTranslations)
			}
			if res.Cycles >= cold.Cycles {
				t.Errorf("warm startup (%.0f cycles) not faster than cold (%.0f)", res.Cycles, cold.Cycles)
			}
		})
	}
}

// TestWarmModesDiffer pins the modeled cost structure: the modes are
// distinct simulated machines. Eager pays its whole restore bill up
// front (first sample already carries it); lazy spreads fault
// surcharges over the run; all warm modes beat cold to the first
// 10k-cycle milestone... and Restore on a cold config is rejected.
func TestWarmModesDiffer(t *testing.T) {
	seed := int64(55)
	code := buildProgram(seed)
	_, _, goldenN := goldenRun(t, code, seed, 5_000_000)

	cfg := DefaultConfig(StratSoft)
	cfg.HotThreshold = 12
	snap, _ := warmSnapshot(t, cfg, code, seed, goldenN+1000)

	results := map[WarmStart]*Result{}
	for _, mode := range []WarmStart{WarmLazy, WarmHybrid, WarmEager} {
		wcfg := cfg
		wcfg.WarmStart = mode
		vm := New(wcfg, freshMemory(code, seed), initState())
		if _, err := vm.Restore(snap); err != nil {
			t.Fatal(err)
		}
		res, err := vm.Run(goldenN + 1000)
		if err != nil {
			t.Fatal(err)
		}
		results[mode] = res
	}
	// Eager restores everything; lazy restores at most as much as
	// hybrid's preload + faults; every mode pays some VMM restore cost.
	if results[WarmEager].RestoredX86 < results[WarmHybrid].RestoredX86 ||
		results[WarmHybrid].RestoredX86 < results[WarmLazy].RestoredX86 {
		t.Errorf("restored-x86 ordering violated: lazy %d, hybrid %d, eager %d",
			results[WarmLazy].RestoredX86, results[WarmHybrid].RestoredX86,
			results[WarmEager].RestoredX86)
	}

	vm := New(cfg, freshMemory(code, seed), initState()) // WarmOff
	if _, err := vm.Restore(snap); err == nil {
		t.Error("Restore accepted on a WarmOff config")
	}
	wcfg := cfg
	wcfg.WarmStart = WarmLazy
	vm2 := New(wcfg, freshMemory(code, seed), initState())
	if _, err := vm2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := vm2.Restore(snap); err == nil {
		t.Error("double Restore accepted")
	}
}
