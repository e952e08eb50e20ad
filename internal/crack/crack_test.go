package crack

import (
	"math/rand"
	"testing"

	"codesignvm/internal/fisa"
	"codesignvm/internal/interp"
	"codesignvm/internal/x86"
	"codesignvm/internal/x86/randasm"
)

// The differential harness: every randomly generated non-CTI instruction
// is executed both by the interpreter (golden model) and by cracking to
// micro-ops and running them through the fisa executor. Architected
// state and the data window must match exactly afterwards.

const (
	diffCodeBase = randasm.CodeBase
	winBase      = randasm.WinBase
	winSize      = randasm.WinSize
	stackTop     = randasm.StackTop
)

func memEqual(a, b *x86.Memory) (uint32, bool) {
	for i := uint32(0); i < winSize; i++ {
		if a.Read8(winBase+i) != b.Read8(winBase+i) {
			return winBase + i, false
		}
	}
	for i := uint32(0); i < 64; i++ {
		addr := stackTop - 32 + i
		if a.Read8(addr) != b.Read8(addr) {
			return addr, false
		}
	}
	return 0, true
}

func TestCrackDifferential(t *testing.T) {
	d := &randasm.Gen{Rand: rand.New(rand.NewSource(1152))}
	for iter := 0; iter < 8000; iter++ {
		a := x86.NewAsm(diffCodeBase)
		what := d.Emit(a)
		code, err := a.Finalize()
		if err != nil {
			t.Fatalf("iter %d (%s): assemble: %v", iter, what, err)
		}
		in, err := x86.Decode(code)
		if err != nil {
			t.Fatalf("iter %d (%s): decode % x: %v", iter, what, code, err)
		}

		st0 := d.RandState()
		seed := int64(iter) * 7919

		// Golden path: interpreter.
		memI := x86.NewMemory()
		memI.WriteBytes(diffCodeBase, code)
		randasm.FillWindow(memI, seed)
		stI := st0
		mi := interp.New(&stI, memI)
		if err := mi.Exec(in); err != nil {
			t.Fatalf("iter %d (%s): interp %v: %v", iter, what, in, err)
		}

		// Crack path.
		uops, desc, err := Crack(nil, &in, diffCodeBase)
		if err != nil {
			t.Fatalf("iter %d (%s): crack %v: %v", iter, what, in, err)
		}
		if desc.Kind != KindNormal {
			t.Fatalf("iter %d (%s): unexpected kind %v", iter, what, desc.Kind)
		}
		uops = append(uops, fisa.MicroOp{Op: fisa.UEXIT, W: 4})
		memC := x86.NewMemory()
		memC.WriteBytes(diffCodeBase, code)
		randasm.FillWindow(memC, seed)
		var nst fisa.NativeState
		nst.LoadArch(&st0)
		kind, _, err := fisa.Exec(&fisa.Env{St: &nst, Mem: memC}, uops, 0, &fisa.ExecStats{})
		if err != nil {
			t.Fatalf("iter %d (%s): exec %v: %v\nuops: %v", iter, what, in, err, uops)
		}
		if kind != fisa.StopExit {
			t.Fatalf("iter %d (%s): stop kind %v", iter, what, kind)
		}
		var stC x86.State
		nst.StoreArch(&stC)
		stC.EIP = desc.NextPC

		if !stC.Equal(&stI) {
			t.Fatalf("iter %d (%s): state mismatch for %v\n  interp: R=%x F=%v EIP=%#x\n  crack:  R=%x F=%v EIP=%#x\n  uops: %v",
				iter, what, in, stI.R, stI.Flags, stI.EIP, stC.R, stC.Flags, stC.EIP, uops)
		}
		if addr, ok := memEqual(memI, memC); !ok {
			t.Fatalf("iter %d (%s): memory mismatch at %#x for %v (interp=%#x crack=%#x)\nuops: %v",
				iter, what, addr, in, memI.Read8(addr), memC.Read8(addr), uops)
		}

		// All emitted micro-ops must be encodable (code-cache residency).
		for j := range uops {
			if _, err := fisa.Encode(nil, &uops[j]); err != nil {
				t.Fatalf("iter %d (%s): µop %d unencodable: %v (%v)", iter, what, j, err, uops[j])
			}
		}
	}
}

func TestCrackCTIDescriptors(t *testing.T) {
	cases := []struct {
		build func(a *x86.Asm)
		kind  Kind
	}{
		{func(a *x86.Asm) { a.Label("x"); a.Jcc(x86.CondE, "x") }, KindCondBranch},
		{func(a *x86.Asm) { a.Label("x"); a.Jmp("x") }, KindJump},
		{func(a *x86.Asm) { a.Label("x"); a.Call("x") }, KindCall},
		{func(a *x86.Asm) { a.JmpReg(x86.EAX) }, KindJumpInd},
		{func(a *x86.Asm) { a.CallReg(x86.EBX) }, KindCallInd},
		{func(a *x86.Asm) { a.Ret() }, KindRet},
		{func(a *x86.Asm) { a.RetI(8) }, KindRet},
		{func(a *x86.Asm) { a.Hlt() }, KindHalt},
		{func(a *x86.Asm) { a.Div(x86.R(x86.ECX)) }, KindNormal}, // microcoded assists
		{func(a *x86.Asm) { a.RepMovsd() }, KindComplex},
	}
	for i, c := range cases {
		a := x86.NewAsm(diffCodeBase)
		c.build(a)
		code, err := a.Finalize()
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		in, err := x86.Decode(code)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		_, desc, err := Crack(nil, &in, diffCodeBase)
		if err != nil {
			t.Fatalf("case %d: crack: %v", i, err)
		}
		if desc.Kind != c.kind {
			t.Errorf("case %d (%v): kind = %v, want %v", i, in, desc.Kind, c.kind)
		}
		if desc.NextPC != diffCodeBase+uint32(in.Len) {
			t.Errorf("case %d: nextPC = %#x", i, desc.NextPC)
		}
		if c.kind == KindCondBranch || c.kind == KindJump || c.kind == KindCall {
			if desc.Target != diffCodeBase {
				t.Errorf("case %d: target = %#x, want %#x", i, desc.Target, diffCodeBase)
			}
		}
	}
}

func TestCallPushesReturnAddress(t *testing.T) {
	a := x86.NewAsm(diffCodeBase)
	a.Label("self")
	a.Call("self")
	code, _ := a.Finalize()
	in, _ := x86.Decode(code)
	uops, desc, err := Crack(nil, &in, diffCodeBase)
	if err != nil {
		t.Fatal(err)
	}
	uops = append(uops, fisa.MicroOp{Op: fisa.UEXIT, W: 4})
	var nst fisa.NativeState
	nst.R[fisa.RESP] = stackTop
	mem := x86.NewMemory()
	if _, _, err := fisa.Exec(&fisa.Env{St: &nst, Mem: mem}, uops, 0, &fisa.ExecStats{}); err != nil {
		t.Fatal(err)
	}
	if nst.R[fisa.RESP] != stackTop-4 {
		t.Errorf("esp = %#x", nst.R[fisa.RESP])
	}
	if got := mem.Read32(stackTop - 4); got != desc.NextPC {
		t.Errorf("pushed return = %#x, want %#x", got, desc.NextPC)
	}
}

func TestRetLoadsTarget(t *testing.T) {
	a := x86.NewAsm(diffCodeBase)
	a.RetI(12)
	code, _ := a.Finalize()
	in, _ := x86.Decode(code)
	uops, desc, err := Crack(nil, &in, diffCodeBase)
	if err != nil {
		t.Fatal(err)
	}
	uops = append(uops, fisa.MicroOp{Op: fisa.UEXIT, W: 4})
	var nst fisa.NativeState
	nst.R[fisa.RESP] = stackTop
	mem := x86.NewMemory()
	mem.Write32(stackTop, 0x123456)
	if _, _, err := fisa.Exec(&fisa.Env{St: &nst, Mem: mem}, uops, 0, &fisa.ExecStats{}); err != nil {
		t.Fatal(err)
	}
	if nst.R[desc.TargetReg] != 0x123456 {
		t.Errorf("target = %#x", nst.R[desc.TargetReg])
	}
	if nst.R[fisa.RESP] != stackTop+4+12 {
		t.Errorf("esp = %#x", nst.R[fisa.RESP])
	}
}

// TestCrackDensity sanity-checks the cracking ratio on a representative
// mix: the average should land in the 1.2-2.5 µops per x86 instruction
// range typical of x86 implementations.
func TestCrackDensity(t *testing.T) {
	d := &randasm.Gen{Rand: rand.New(rand.NewSource(7))}
	totalUops, totalInsts := 0, 0
	for i := 0; i < 2000; i++ {
		a := x86.NewAsm(diffCodeBase)
		d.Emit(a)
		code, err := a.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		in, err := x86.Decode(code)
		if err != nil {
			t.Fatal(err)
		}
		uops, _, err := Crack(nil, &in, diffCodeBase)
		if err != nil {
			t.Fatal(err)
		}
		totalUops += len(uops)
		totalInsts++
	}
	ratio := float64(totalUops) / float64(totalInsts)
	if ratio < 1.0 || ratio > 2.8 {
		t.Errorf("cracking ratio = %.2f, outside plausible range", ratio)
	}
	t.Logf("cracking ratio: %.2f µops/x86 instruction", ratio)
}

// TestCrackDivMulMicrocode checks the microcoded wide-multiply/divide
// lowering against the interpreter with controlled operands.
func TestCrackDivMulMicrocode(t *testing.T) {
	cases := []struct {
		name  string
		build func(a *x86.Asm)
		init  func(st *x86.State)
	}{
		{"div", func(a *x86.Asm) { a.Div(x86.R(x86.ECX)) }, func(st *x86.State) {
			st.R[x86.EAX] = 1_000_003
			st.R[x86.EDX] = 0
			st.R[x86.ECX] = 97
		}},
		{"div wide", func(a *x86.Asm) { a.Div(x86.R(x86.ECX)) }, func(st *x86.State) {
			st.R[x86.EAX] = 0x12345678
			st.R[x86.EDX] = 3
			st.R[x86.ECX] = 0xFFFF1234
		}},
		{"idiv negative", func(a *x86.Asm) { a.IDiv(x86.R(x86.EBX)) }, func(st *x86.State) {
			st.R[x86.EAX] = uint32(-1_000_003 & 0xFFFFFFFF)
			st.R[x86.EDX] = 0xFFFFFFFF // sign extension
			st.R[x86.EBX] = 97
		}},
		{"mul wide", func(a *x86.Asm) { a.Mul1(x86.R(x86.ESI)) }, func(st *x86.State) {
			st.R[x86.EAX] = 0xDEADBEEF
			st.R[x86.ESI] = 0x12345678
		}},
		{"imul1", func(a *x86.Asm) { a.IMul1(x86.R(x86.EBX)) }, func(st *x86.State) {
			st.R[x86.EAX] = uint32(-12345 & 0xFFFFFFFF)
			st.R[x86.EBX] = uint32(-777 & 0xFFFFFFFF)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := x86.NewAsm(diffCodeBase)
			tc.build(a)
			code, err := a.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			in, err := x86.Decode(code)
			if err != nil {
				t.Fatal(err)
			}

			memI := x86.NewMemory()
			memI.WriteBytes(diffCodeBase, code)
			stI := x86.State{EIP: diffCodeBase}
			tc.init(&stI)
			mi := interp.New(&stI, memI)
			if err := mi.Exec(in); err != nil {
				t.Fatalf("interp: %v", err)
			}

			uops, desc, err := Crack(nil, &in, diffCodeBase)
			if err != nil {
				t.Fatal(err)
			}
			if desc.Kind != KindNormal {
				t.Fatalf("kind = %v, want normal (microcoded)", desc.Kind)
			}
			for i := range uops {
				if uops[i].Op == fisa.UCALLOUT {
					t.Fatal("microcoded lowering must not call out")
				}
			}
			uops = append(uops, fisa.MicroOp{Op: fisa.UEXIT, W: 4})
			memC := x86.NewMemory()
			memC.WriteBytes(diffCodeBase, code)
			var nst fisa.NativeState
			stC := x86.State{EIP: diffCodeBase}
			tc.init(&stC)
			nst.LoadArch(&stC)
			if _, _, err := fisa.Exec(&fisa.Env{St: &nst, Mem: memC}, uops, 0, &fisa.ExecStats{}); err != nil {
				t.Fatalf("exec: %v", err)
			}
			var got x86.State
			nst.StoreArch(&got)
			got.EIP = stI.EIP
			// MUL/DIV leave several flags architecturally undefined; we
			// compare the defined outcome registers and CF/OF for MUL.
			if got.R != stI.R {
				t.Errorf("registers differ:\n interp %x\n crack  %x", stI.R, got.R)
			}
			if in.Op == x86.MUL1 || in.Op == x86.IMUL1 {
				mask := x86.FlagCF | x86.FlagOF
				if got.Flags&mask != stI.Flags&mask {
					t.Errorf("CF/OF differ: %v vs %v", got.Flags, stI.Flags)
				}
			}
		})
	}
}
