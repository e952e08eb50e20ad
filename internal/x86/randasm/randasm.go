// Package randasm emits random IA-32 subset instructions for
// differential tests: every non-CTI form the crackers and the
// interpreter support, with memory operands that land in a fixed data
// window while the registers hold a state from RandState.
package randasm

import (
	"math/rand"

	"codesignvm/internal/x86"
)

// The layout the generated instructions assume: code at CodeBase, a
// data window of WinSize bytes at WinBase and the stack at StackTop.
const (
	CodeBase = 0x400000
	WinBase  = 0x101F00
	WinSize  = 0x600
	StackTop = 0x103800
)

// Gen draws instructions and states from Rand.
type Gen struct {
	Rand *rand.Rand
}

// RandState produces a random but memory-safe architected state: EBX/ESI
// point into the data window, ECX/EDX are small indices, the rest hold
// small values.
func (d *Gen) RandState() x86.State {
	var st x86.State
	st.R[x86.EAX] = d.Rand.Uint32()
	st.R[x86.ECX] = uint32(d.Rand.Intn(64))
	st.R[x86.EDX] = uint32(d.Rand.Intn(64))
	st.R[x86.EBX] = WinBase + 0x100 + uint32(d.Rand.Intn(0x100))
	st.R[x86.ESP] = StackTop
	st.R[x86.EBP] = uint32(d.Rand.Intn(1024))
	st.R[x86.ESI] = WinBase + 0x100 + uint32(d.Rand.Intn(0x100))
	st.R[x86.EDI] = d.Rand.Uint32()
	if d.Rand.Intn(2) == 0 {
		st.Flags = x86.Flags(d.Rand.Uint32()) & x86.FlagsAll
	}
	st.EIP = CodeBase
	return st
}

// randMemOp produces a memory operand guaranteed to land in the window.
func (d *Gen) randMemOp() x86.Operand {
	switch d.Rand.Intn(4) {
	case 0:
		return x86.MAbs(WinBase + 0x200 + uint32(d.Rand.Intn(0x100)))
	case 1:
		return x86.M(x86.EBX, int32(d.Rand.Intn(128)-32))
	case 2:
		base := []x86.Reg{x86.EBX, x86.ESI}[d.Rand.Intn(2)]
		idx := []x86.Reg{x86.ECX, x86.EDX}[d.Rand.Intn(2)]
		scale := []uint8{1, 2, 4, 8}[d.Rand.Intn(4)]
		return x86.MSIB(base, idx, scale, int32(d.Rand.Intn(64)-16))
	default:
		// Large displacement to force constant materialization.
		return x86.M(x86.EBX, int32(d.Rand.Intn(0x80))+0x40)
	}
}

func (d *Gen) randReg() x86.Reg {
	// Exclude ESP so the stack pointer stays valid.
	r := x86.Reg(d.Rand.Intn(8))
	if r == x86.ESP {
		r = x86.EDI
	}
	return r
}

// Emit emits one random non-CTI instruction and returns a label naming
// its form.
func (d *Gen) Emit(a *x86.Asm) string {
	r := d.Rand
	w := []uint8{1, 2, 4}[r.Intn(3)]
	alu := []x86.Op{x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.OR, x86.XOR, x86.CMP}
	switch r.Intn(17) {
	case 0:
		op := alu[r.Intn(len(alu))]
		a.ALU(op, w, d.randMemOp(), x86.R(d.randReg()))
		return "alu m,r"
	case 1:
		op := alu[r.Intn(len(alu))]
		a.ALU(op, w, x86.R(d.randReg()), d.randMemOp())
		return "alu r,m"
	case 2:
		op := alu[r.Intn(len(alu))]
		imm := int32(int16(r.Uint32()))
		if w == 1 {
			imm = int32(int8(imm))
		}
		if r.Intn(2) == 0 {
			a.ALUI(op, w, x86.R(d.randReg()), imm)
		} else {
			a.ALUI(op, w, d.randMemOp(), imm)
		}
		return "alu imm"
	case 3:
		if r.Intn(2) == 0 {
			a.Mov(w, d.randMemOp(), x86.R(d.randReg()))
		} else {
			a.Mov(w, x86.R(d.randReg()), d.randMemOp())
		}
		return "mov r/m"
	case 4:
		if r.Intn(2) == 0 {
			a.MovRI(d.randReg(), r.Uint32())
		} else {
			a.MovMI(w, d.randMemOp(), int32(r.Uint32()))
		}
		return "mov imm"
	case 5:
		sw := []uint8{1, 2}[r.Intn(2)]
		var src x86.Operand
		if r.Intn(2) == 0 {
			src = d.randMemOp()
		} else {
			src = x86.R(d.randReg())
		}
		if r.Intn(2) == 0 {
			a.Movzx(d.randReg(), src, sw)
		} else {
			a.Movsx(d.randReg(), src, sw)
		}
		return "movzx/sx"
	case 6:
		a.Lea(d.randReg(), d.randMemOp())
		return "lea"
	case 7:
		if r.Intn(2) == 0 {
			a.Test(w, d.randMemOp(), d.randReg())
		} else {
			a.TestI(w, x86.R(d.randReg()), int32(int16(r.Uint32())))
		}
		return "test"
	case 8:
		switch r.Intn(4) {
		case 0:
			a.Inc(d.randReg())
		case 1:
			a.Dec(d.randReg())
		case 2:
			a.IncM(w, d.randMemOp())
		default:
			a.DecM(w, d.randMemOp())
		}
		return "inc/dec"
	case 9:
		if r.Intn(2) == 0 {
			a.Neg(w, d.randMemOp())
		} else {
			a.Not(w, x86.R(d.randReg()))
		}
		return "neg/not"
	case 10:
		if r.Intn(2) == 0 {
			a.Imul(d.randReg(), x86.R(d.randReg()))
		} else {
			a.ImulI(d.randReg(), d.randMemOp(), int32(int16(r.Uint32())))
		}
		return "imul"
	case 11:
		op := []x86.Op{x86.SHL, x86.SHR, x86.SAR}[r.Intn(3)]
		switch r.Intn(3) {
		case 0:
			a.ShiftI(op, w, x86.R(d.randReg()), uint8(r.Intn(32)))
		case 1:
			a.ShiftI(op, w, d.randMemOp(), uint8(1+r.Intn(31)))
		default:
			a.ShiftCL(op, w, x86.R(d.randReg()))
		}
		return "shift"
	case 12:
		switch r.Intn(3) {
		case 0:
			a.Push(d.randReg())
		case 1:
			a.PushI(int32(r.Uint32()))
		default:
			a.Pop(d.randReg())
		}
		return "push/pop"
	case 13:
		if r.Intn(2) == 0 {
			a.Setcc(x86.Cond(r.Intn(16)), x86.R(x86.Reg(r.Intn(8))))
		} else {
			a.Setcc(x86.Cond(r.Intn(16)), d.randMemOp())
		}
		return "setcc"
	case 14:
		a.Cdq()
		return "cdq"
	case 15:
		switch r.Intn(3) {
		case 0:
			if r.Intn(2) == 0 {
				a.Xchg(w, x86.R(d.randReg()), d.randReg())
			} else {
				a.Xchg(w, d.randMemOp(), d.randReg())
			}
			return "xchg"
		case 1:
			if r.Intn(2) == 0 {
				a.Cmov(x86.Cond(r.Intn(16)), d.randReg(), x86.R(d.randReg()))
			} else {
				a.Cmov(x86.Cond(r.Intn(16)), d.randReg(), d.randMemOp())
			}
			return "cmov"
		default:
			op := []x86.Op{x86.ROL, x86.ROR}[r.Intn(2)]
			if r.Intn(2) == 0 {
				a.ShiftI(op, w, x86.R(d.randReg()), uint8(r.Intn(32)))
			} else {
				a.ShiftCL(op, w, d.randMemOp())
			}
			return "rotate"
		}
	default:
		a.Nop()
		return "nop"
	}
}

// FillWindow writes deterministic pseudo-random bytes over the data
// window and stack region.
func FillWindow(mem *x86.Memory, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := uint32(0); i < WinSize; i += 4 {
		mem.Write32(WinBase+i, rng.Uint32())
	}
	for i := uint32(0); i < 64; i += 4 {
		mem.Write32(StackTop-32+i, rng.Uint32())
	}
}
