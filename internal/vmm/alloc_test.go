package vmm

import "testing"

// steadyStateVM builds a VM, warms it past translation and chaining,
// and returns it together with the warmed cycle budget. Subsequent
// Run calls with a slightly larger budget exercise only the dispatch
// fast path: every block is translated, chained, and hot.
func steadyStateVM(t testing.TB, indirect bool) (*VM, uint64) {
	t.Helper()
	code := buildHotLoop(indirect)
	cfg := DefaultConfig(StratSoft)
	cfg.NoStartupSamples = true
	vm := New(cfg, freshMemory(code, 1), initState())
	budget := uint64(500_000)
	if _, err := vm.Run(budget); err != nil {
		t.Fatal(err)
	}
	return vm, budget
}

// TestDispatchHotZeroAlloc asserts the chained-dispatch steady state
// allocates nothing per Run step: translations live in the code
// cache's arena, the trace/event buffers are retained, and with
// NoStartupSamples set there is no sample bookkeeping left. A single
// byte of per-step heap traffic here multiplies across the billions
// of dispatches in a full figure run, so this is an exact gate, not a
// threshold.
func TestDispatchHotZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name     string
		indirect bool
	}{
		{"chained", false},
		{"jtlb-hit", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vm, budget := steadyStateVM(t, tc.indirect)
			allocs := testing.AllocsPerRun(100, func() {
				budget += 2000
				if _, err := vm.Run(budget); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("steady-state %s dispatch: %v allocs/op, want 0", tc.name, allocs)
			}
		})
	}
}

// TestObsDisabledZeroAlloc asserts that a VM with no observer attached
// (the default) pays zero allocations per steady-state Run step — the
// observability layer must be free when disabled.
func TestObsDisabledZeroAlloc(t *testing.T) {
	vm, budget := steadyStateVM(t, false)
	vm.SetObserver(nil)
	allocs := testing.AllocsPerRun(100, func() {
		budget += 2000
		if _, err := vm.Run(budget); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("disabled-obs steady state: %v allocs/op, want 0", allocs)
	}
}
