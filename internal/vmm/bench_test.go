package vmm

import (
	"fmt"
	"testing"

	"codesignvm/internal/x86"
)

// buildHotLoop emits a never-halting program. With indirect=false the
// steady state is pure direct-branch chaining (the chain fast path);
// with indirect=true every inner iteration runs call/ret pairs whose
// return transitions are indirect exits — never chained, so each one
// dispatches through the software jump-TLB.
func buildHotLoop(indirect bool) []byte {
	a := x86.NewAsm(tCodeBase)
	a.Jmp("main")
	for i := 0; i < 4; i++ {
		a.Label(fmt.Sprintf("fn_%d", i))
		a.ALUI(x86.ADD, 4, x86.R(x86.EAX), int32(i+1))
		a.ALUI(x86.XOR, 4, x86.R(x86.EDX), 3)
		a.Ret()
	}
	a.Label("main")
	a.MovRI(x86.EBX, tDataBase)
	a.MovRI(x86.EAX, 0x1234)
	a.MovRI(x86.EDX, 0x9999)
	a.Label("top")
	a.Push(x86.ECX)
	a.MovRI(x86.ECX, 8)
	a.Label("inner")
	a.ALU(x86.ADD, 4, x86.R(x86.EAX), x86.R(x86.EDX))
	a.Mov(4, x86.M(x86.EBX, 64), x86.R(x86.EAX))
	a.Mov(4, x86.R(x86.EDI), x86.M(x86.EBX, 64))
	if indirect {
		a.Call("fn_0")
		a.Call("fn_1")
		a.Call("fn_2")
		a.Call("fn_3")
	} else {
		a.ALUI(x86.SUB, 4, x86.R(x86.EDX), 7)
	}
	a.Dec(x86.ECX)
	a.Jcc(x86.CondNE, "inner")
	a.Pop(x86.ECX)
	a.Jmp("top")
	code, err := a.Finalize()
	if err != nil {
		panic(err)
	}
	return code
}

// benchDispatch measures steady-state simulation of the hot loop,
// advancing the same VM's instruction budget each iteration so every
// op covers perInstrs freshly dispatched-and-executed instructions.
func benchDispatch(b *testing.B, indirect bool) {
	code := buildHotLoop(indirect)
	cfg := DefaultConfig(StratSoft)
	cfg.NoStartupSamples = true
	vm := New(cfg, freshMemory(code, 1), initState())
	budget := uint64(500_000)
	if _, err := vm.Run(budget); err != nil {
		b.Fatal(err)
	}
	const perInstrs = 2000
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		budget += perInstrs
		if _, err := vm.Run(budget); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	hits, misses := vm.res.JTLBHits, vm.res.JTLBMisses
	if hits+misses > 0 {
		b.ReportMetric(float64(hits)/float64(hits+misses), "jtlb-hit-rate")
	}
	if indirect && hits == 0 {
		b.Fatal("indirect workload never hit the JTLB")
	}
}

// BenchmarkDispatchHot covers both dispatch fast paths; steady state
// must do zero allocations per op on either.
func BenchmarkDispatchHot(b *testing.B) {
	b.Run("chained", func(b *testing.B) { benchDispatch(b, false) })
	b.Run("jtlb-hit", func(b *testing.B) { benchDispatch(b, true) })
}
