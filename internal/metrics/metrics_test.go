package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"codesignvm/internal/vmm"
)

func linearSamples(ipc float64, n int, step float64) []vmm.Sample {
	out := make([]vmm.Sample, n)
	for i := range out {
		c := float64(i+1) * step
		out[i] = vmm.Sample{Cycles: c, Instrs: uint64(ipc * c)}
	}
	return out
}

func TestInstrsAtInterpolation(t *testing.T) {
	s := []vmm.Sample{
		{Cycles: 100, Instrs: 50},
		{Cycles: 200, Instrs: 150},
		{Cycles: 400, Instrs: 350},
	}
	cases := []struct {
		c    float64
		want float64
	}{
		{50, 25},   // before first: scale from origin
		{100, 50},  // exact
		{150, 100}, // midpoint of segment
		{400, 350},
		{800, 700}, // flat-rate extrapolation
	}
	for _, tc := range cases {
		if got := InstrsAt(s, tc.c); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("InstrsAt(%v) = %v, want %v", tc.c, got, tc.want)
		}
	}
	if InstrsAt(nil, 100) != 0 || InstrsAt(s, 0) != 0 {
		t.Error("edge cases should return 0")
	}
}

// Property: interpolation is monotone in cycles.
func TestInstrsAtMonotoneProperty(t *testing.T) {
	s := linearSamples(1.5, 20, 100)
	f := func(a, b float64) bool {
		a = math.Abs(math.Mod(a, 3000))
		b = math.Abs(math.Mod(b, 3000))
		if a > b {
			a, b = b, a
		}
		return InstrsAt(s, a) <= InstrsAt(s, b)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHarmonicMean(t *testing.T) {
	if hm := HarmonicMean([]float64{1, 1, 1}); math.Abs(hm-1) > 1e-12 {
		t.Errorf("HM(1,1,1) = %v", hm)
	}
	if hm := HarmonicMean([]float64{2, 2}); math.Abs(hm-2) > 1e-12 {
		t.Errorf("HM(2,2) = %v", hm)
	}
	// HM(1,3) = 2*3/(3+1) = 1.5
	if hm := HarmonicMean([]float64{1, 3}); math.Abs(hm-1.5) > 1e-12 {
		t.Errorf("HM(1,3) = %v", hm)
	}
	if hm := HarmonicMean([]float64{0, -1}); hm != 0 {
		t.Errorf("HM of non-positives = %v", hm)
	}
	// HM ≤ arithmetic mean.
	vals := []float64{0.5, 1.7, 2.9, 4.2}
	am := (0.5 + 1.7 + 2.9 + 4.2) / 4
	if hm := HarmonicMean(vals); hm > am {
		t.Errorf("HM %v exceeds AM %v", hm, am)
	}
}

func TestBreakeven(t *testing.T) {
	// Ref runs at IPC 1 from the start; VM at 0 for 1000 cycles then IPC 2.
	ref := linearSamples(1.0, 100, 100)
	vm := make([]vmm.Sample, 0, 100)
	for i := 1; i <= 100; i++ {
		c := float64(i) * 100
		instr := 0.0
		if c > 1000 {
			instr = 2 * (c - 1000)
		}
		vm = append(vm, vmm.Sample{Cycles: c, Instrs: uint64(instr)})
	}
	// Breakeven when 2(c-1000) = c → c = 2000.
	be, ok := Breakeven(ref, vm)
	if !ok {
		t.Fatal("breakeven not found")
	}
	if be < 1900 || be > 2100 {
		t.Errorf("breakeven = %.0f, want ≈ 2000", be)
	}
}

func TestBreakevenNever(t *testing.T) {
	ref := linearSamples(1.0, 50, 100)
	vm := linearSamples(0.5, 50, 100)
	if _, ok := Breakeven(ref, vm); ok {
		t.Error("slower VM must never break even")
	}
}

func TestBreakevenImmediate(t *testing.T) {
	ref := linearSamples(1.0, 50, 100)
	vm := linearSamples(1.2, 50, 100)
	be, ok := Breakeven(ref, vm)
	if !ok || be > 2 {
		t.Errorf("faster-from-start VM: be=%v ok=%v", be, ok)
	}
}

func TestSteadyIPC(t *testing.T) {
	// Slow first 1000 cycles, then IPC 2.
	s := []vmm.Sample{
		{Cycles: 1000, Instrs: 100},
		{Cycles: 1500, Instrs: 1100},
		{Cycles: 2000, Instrs: 2100},
	}
	ipc := SteadyIPC(s, 0.5)
	if math.Abs(ipc-2) > 0.1 {
		t.Errorf("steady IPC = %v, want ≈ 2", ipc)
	}
	if SteadyIPC(nil, 0.5) != 0 {
		t.Error("empty samples")
	}
}

func TestLogGrid(t *testing.T) {
	g := LogGrid(10, 10000, 1)
	if len(g) != 4 {
		t.Fatalf("grid = %v", g)
	}
	for i, want := range []float64{10, 100, 1000, 10000} {
		if math.Abs(g[i]-want)/want > 1e-9 {
			t.Errorf("grid[%d] = %v, want %v", i, g[i], want)
		}
	}
	if LogGrid(0, 100, 1) != nil || LogGrid(100, 10, 1) != nil {
		t.Error("invalid grids should be nil")
	}
}

func TestAggregateIPCCurve(t *testing.T) {
	s := linearSamples(2.0, 50, 100)
	grid := LogGrid(100, 1000, 3)
	curve := AggregateIPCCurve(s, grid, 2.0)
	for _, p := range curve {
		if math.Abs(p.Value-1.0) > 0.02 {
			t.Errorf("normalized IPC at %v = %v, want 1", p.Cycles, p.Value)
		}
	}
}

func TestHistogram(t *testing.T) {
	counts := map[uint32]uint64{
		1: 1, 2: 5, 3: 9, // bucket 0 (1+)
		4: 10, 5: 99, // bucket 1
		6: 100,      // bucket 2
		7: 12345,    // bucket 4 (10K+)
		8: 20000000, // bucket 7 (10M+, clamped)
	}
	h := BuildHistogram(nil, counts)
	if h.Total != 8 {
		t.Errorf("total = %d", h.Total)
	}
	want := []uint64{3, 2, 1, 0, 1, 0, 0, 1}
	for i, w := range want {
		if h.Buckets[i] != w {
			t.Errorf("bucket %d = %d, want %d", i, h.Buckets[i], w)
		}
	}
	sum := 0.0
	for _, f := range h.DynFrac {
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("dynamic fractions sum to %v", sum)
	}
	if len(BucketLabels()) != len(h.Buckets) {
		t.Error("label/bucket mismatch")
	}
}
