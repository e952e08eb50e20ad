package machine

import (
	"runtime"
	"testing"

	"codesignvm/internal/metrics"
	"codesignvm/internal/vmm"
	"codesignvm/internal/workload"
)

func TestModelNames(t *testing.T) {
	for m := Ref; m < NumModels; m++ {
		back, err := ByName(m.String())
		if err != nil || back != m {
			t.Errorf("round trip %v: %v %v", m, back, err)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("expected error")
	}
}

// TestStartupOrdering is the headline calibration check: on a scaled
// Winstone-like workload, early-startup performance must order
// Interp < soft < be ≤ fe ≈ ref, and the VM schemes must show a
// steady-state advantage over Ref.
func TestStartupOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("startup simulation is seconds-long")
	}
	prog, err := workload.App("Word", 100)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 3_000_000
	results := map[Model]*vmm.Result{}
	for m := Ref; m < NumModels; m++ {
		res, err := Run(m, prog, budget)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		results[m] = res
		t.Logf("%-10v cycles=%.3e IPC=%.3f steady=%.3f sbtCover=%.2f cat=%v",
			m, res.Cycles, res.IPC(), metrics.SteadyIPC(res.Samples, 0.5),
			res.HotspotCoverage(), res.Cat)
	}

	refIPC := results[Ref].IPC()
	// Early behaviour: at the cycle count where Ref has run 1/10 of its
	// total, the software VM must be clearly behind Ref, and VM.fe must
	// be close to Ref.
	probe := results[Ref].Cycles / 10
	refI := metrics.InstrsAt(results[Ref].Samples, probe)
	softI := metrics.InstrsAt(results[VMSoft].Samples, probe)
	feI := metrics.InstrsAt(results[VMFE].Samples, probe)
	interpI := metrics.InstrsAt(results[VMInterp].Samples, probe)
	beI := metrics.InstrsAt(results[VMBE].Samples, probe)
	t.Logf("at %.2e cycles: ref=%.0f soft=%.0f be=%.0f fe=%.0f interp=%.0f",
		probe, refI, softI, beI, feI, interpI)
	if softI >= refI {
		t.Errorf("VM.soft should start slower than Ref (soft=%.0f ref=%.0f)", softI, refI)
	}
	if interpI >= softI {
		t.Errorf("interpretation should start slower than BBT (interp=%.0f soft=%.0f)", interpI, softI)
	}
	if beI <= softI {
		t.Errorf("VM.be should start faster than VM.soft (be=%.0f soft=%.0f)", beI, softI)
	}
	if feI < 0.85*refI {
		t.Errorf("VM.fe should track Ref closely (fe=%.0f ref=%.0f)", feI, refI)
	}

	// Steady state: the fused-macro-op VMs should beat Ref's IPC in
	// their optimized region.
	steadyRef := metrics.SteadyIPC(results[Ref].Samples, 0.6)
	steadyFE := metrics.SteadyIPC(results[VMFE].Samples, 0.6)
	t.Logf("steady: ref=%.3f fe=%.3f (gain %.1f%%)", steadyRef, steadyFE, 100*(steadyFE/steadyRef-1))
	if steadyFE <= steadyRef {
		t.Errorf("VM.fe steady IPC %.3f should exceed Ref %.3f", steadyFE, steadyRef)
	}
	_ = refIPC
}

func TestRunConfigOverride(t *testing.T) {
	prog, err := workload.App("Norton", 200)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config(VMSoft)
	cfg.HotThreshold = 1 << 62 // never optimize
	res, err := RunConfig(cfg, prog, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.SBTTranslations != 0 {
		t.Errorf("threshold override ignored: %d superblocks", res.SBTTranslations)
	}
}

// TestRunConfigResultDoesNotPinVM: a kept Result must not keep its VM
// (caches, translation arenas, timing engine, memory) reachable. The
// run caches keep every result, so a pinned VM per run grew a sweep's
// heap by the VM footprint of every run it made.
func TestRunConfigResultDoesNotPinVM(t *testing.T) {
	prog, err := workload.App("Word", 400)
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	kept := make([]*vmm.Result, 0, runs)
	for i := 0; i < runs; i++ {
		res, err := RunConfig(Config(VMSoft), prog, 50_000)
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, res)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	// A VM.soft VM holds well over a megabyte; eight kept results and
	// their samples hold a few kilobytes.
	if grown := int64(ms.HeapAlloc) - int64(base); grown > 2<<20 {
		t.Fatalf("heap grew %d bytes while keeping %d results: the results pin their VMs", grown, runs)
	}
	runtime.KeepAlive(kept)
}
