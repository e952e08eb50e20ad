// Package interp is the functional IA-32 subset interpreter. It is used
// three ways in the co-designed VM: as the initial-emulation engine of
// the interpretation-based staged strategy (Fig. 2's "Interp & SBT"
// configuration), as the precise-state fallback that executes
// complex-class instructions on behalf of translated code (the VMM
// callout path), and as the golden reference model for differential
// testing of every translator.
//
// # Decode cache
//
// Step decodes each instruction once and keeps the decode in a
// per-Machine cache keyed by address, so the host pays x86 decode on
// first touch only: the cost the paper's interpreter pays on every
// dynamic instruction, which BBT and SBT exist to amortise. The cache
// is allocated on the first Step, so a Machine used only through Exec
// pays nothing.
//
// Invalidation is by generation (x86.Memory.WatchCode and CodeGen).
// Every page a cached decode read from is watched, including the second
// page of an instruction that straddles two. The first store to a
// watched page, by any writer of that Memory (this interpreter, the
// VMM's translated code, a test), moves the generation. Step compares
// the generation before each lookup and drops the whole cache when it
// has moved, so self-modifying code always executes its current bytes.
// Stores to pages holding no cached decode never move it. What the
// engine's stores pay is described on x86.Memory: the watch flag sits
// in the page-translation entry they already check, so a store to an
// unwatched page costs what it did before the cache existed.
package interp

import (
	"errors"
	"fmt"

	"codesignvm/internal/x86"
)

// Interpreter errors.
var (
	ErrHalted = errors.New("interp: machine halted")
	ErrDivide = errors.New("interp: divide error")
)

// Machine couples architected state with memory and executes
// instructions one at a time.
type Machine struct {
	St     *x86.State
	Mem    *x86.Memory
	Halted bool
	Icount uint64 // retired x86 instructions

	dc *decodeCache // nil until the first Step
}

// New returns an interpreter over the given state and memory.
func New(st *x86.State, mem *x86.Memory) *Machine {
	return &Machine{St: st, Mem: mem}
}

// Step decodes the instruction at EIP, through the decode cache, and
// executes it.
func (m *Machine) Step() (x86.Inst, error) {
	if m.Halted {
		return x86.Inst{}, ErrHalted
	}
	in, err := m.decode(m.St.EIP)
	if err != nil {
		return x86.Inst{}, fmt.Errorf("at %#x: %w", m.St.EIP, err)
	}
	err = m.exec(in)
	return *in, err
}

// decodeCache holds the decodes Step made from one Memory at one code
// generation.
type decodeCache struct {
	mem   *x86.Memory
	gen   uint64
	ways  [codeWays]codeWay
	pages map[uint32]*codePage // every page in ways, and those evicted
}

// codeWays is the size of the direct-mapped table in front of the page
// map: a hot loop touches a handful of code pages.
const codeWays = 16

type codeWay struct {
	idx uint32 // page index; valid when p != nil
	p   *codePage
}

// codePage maps each offset of one page to a slot in its slab of
// decodes. The slab grows a fixed-size chunk at a time, so growing it
// copies nothing and leaves no garbage.
type codePage struct {
	slot   [x86.PageSize]uint16 // 1 + index into the slab; 0 = not decoded
	chunks []*[chunkLen]x86.Inst
	n      int // decodes in the slab
}

// chunkLen is the number of decodes per slab chunk (2.3 KB).
const chunkLen = 64

// decode returns the decode of the instruction at pc, from the cache
// when it holds one for the current code generation.
func (m *Machine) decode(pc uint32) (*x86.Inst, error) {
	c := m.dc
	if c == nil || c.mem != m.Mem || c.gen != m.Mem.CodeGen() {
		c = &decodeCache{mem: m.Mem, gen: m.Mem.CodeGen(), pages: map[uint32]*codePage{}}
		m.dc = c
	}
	idx := pc / x86.PageSize
	w := &c.ways[idx%codeWays]
	if w.p == nil || w.idx != idx {
		p := c.pages[idx]
		if p == nil {
			p = new(codePage)
			c.pages[idx] = p
		}
		*w = codeWay{idx, p}
	}
	p := w.p
	off := pc % x86.PageSize
	if s := int(p.slot[off]) - 1; s >= 0 {
		return &p.chunks[s/chunkLen][s%chunkLen], nil
	}
	in, err := x86.DecodeMem(m.Mem, pc)
	if err != nil {
		return nil, err
	}
	m.Mem.WatchCode(pc)
	m.Mem.WatchCode(pc + uint32(in.Len) - 1)
	if p.n%chunkLen == 0 {
		p.chunks = append(p.chunks, new([chunkLen]x86.Inst))
	}
	dst := &p.chunks[p.n/chunkLen][p.n%chunkLen]
	*dst = in
	p.n++
	p.slot[off] = uint16(p.n)
	return dst, nil
}

// Run executes up to limit instructions, stopping early on HLT. It
// returns the number of instructions retired.
func (m *Machine) Run(limit uint64) (uint64, error) {
	var n uint64
	for n < limit && !m.Halted {
		if _, err := m.Step(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

func (m *Machine) read(op x86.Operand, width uint8) uint32 {
	switch op.Kind {
	case x86.KindReg:
		return m.St.ReadReg(op.Reg, width)
	case x86.KindMem:
		return m.Mem.ReadWidth(m.St.EffAddr(op), width)
	}
	return 0
}

func (m *Machine) write(op x86.Operand, v uint32, width uint8) {
	switch op.Kind {
	case x86.KindReg:
		m.St.WriteReg(op.Reg, v, width)
	case x86.KindMem:
		m.Mem.WriteWidth(m.St.EffAddr(op), v, width)
	}
}

// Exec executes a pre-decoded instruction. The machine's EIP must be the
// address the instruction was decoded from; Exec advances it.
func (m *Machine) Exec(in x86.Inst) error { return m.exec(&in) }

func (m *Machine) exec(in *x86.Inst) error {
	st := m.St
	next := st.EIP + uint32(in.Len)
	w := in.Width

	switch in.Op {
	case x86.NOP:
	case x86.HLT:
		m.Halted = true

	case x86.MOV:
		var v uint32
		if in.HasImm {
			v = uint32(in.Imm)
		} else {
			v = m.read(in.Src, w)
		}
		m.write(in.Dst, v, w)

	case x86.MOVZX:
		v := m.read(in.Src, w) // w is the source width
		m.write(in.Dst, v, 4)

	case x86.MOVSX:
		v := m.read(in.Src, w)
		if w == 1 {
			v = uint32(int32(int8(v)))
		} else {
			v = uint32(int32(int16(v)))
		}
		m.write(in.Dst, v, 4)

	case x86.LEA:
		st.WriteReg(in.Dst.Reg, st.EffAddr(in.Src), 4)

	case x86.ADD, x86.ADC, x86.SUB, x86.SBB, x86.AND, x86.OR, x86.XOR, x86.CMP:
		a := m.read(in.Dst, w)
		var b uint32
		if in.HasImm {
			b = uint32(in.Imm)
		} else {
			b = m.read(in.Src, w)
		}
		res, fl := aluOp(in.Op, a, b, st.Flags, w)
		st.Flags = fl
		if in.Op != x86.CMP {
			m.write(in.Dst, res, w)
		}

	case x86.TEST:
		a := m.read(in.Dst, w)
		var b uint32
		if in.HasImm {
			b = uint32(in.Imm)
		} else {
			b = m.read(in.Src, w)
		}
		mask, _ := widthMaskOf(w)
		st.Flags = x86.FlagsLogic(a&b&mask, w)

	case x86.INC:
		a := m.read(in.Dst, w)
		st.Flags = x86.FlagsInc(st.Flags, a, w)
		m.write(in.Dst, a+1, w)

	case x86.DEC:
		a := m.read(in.Dst, w)
		st.Flags = x86.FlagsDec(st.Flags, a, w)
		m.write(in.Dst, a-1, w)

	case x86.NEG:
		a := m.read(in.Dst, w)
		st.Flags = x86.FlagsNeg(a, w)
		m.write(in.Dst, -a, w)

	case x86.NOT:
		a := m.read(in.Dst, w)
		m.write(in.Dst, ^a, w)

	case x86.IMUL:
		var aOp, bOp uint32
		if in.HasImm { // three-operand: dst = src * imm
			aOp = m.read(in.Src, w)
			bOp = uint32(in.Imm)
		} else { // two-operand: dst = dst * src
			aOp = m.read(x86.R(in.Dst.Reg), w)
			bOp = m.read(in.Src, w)
		}
		res, fl := x86.FlagsImul(int32(aOp), int32(bOp), w)
		st.Flags = fl
		st.WriteReg(in.Dst.Reg, res, w)

	case x86.SHL, x86.SHR, x86.SAR:
		a := m.read(in.Dst, w)
		var count uint8
		if in.HasImm {
			count = uint8(in.Imm)
		} else {
			count = uint8(st.R[x86.ECX]) // CL
		}
		var res uint32
		var fl x86.Flags
		switch in.Op {
		case x86.SHL:
			res, fl = x86.FlagsShl(st.Flags, a, count, w)
		case x86.SHR:
			res, fl = x86.FlagsShr(st.Flags, a, count, w)
		default:
			res, fl = x86.FlagsSar(st.Flags, a, count, w)
		}
		st.Flags = fl
		m.write(in.Dst, res, w)

	case x86.PUSH:
		var v uint32
		if in.HasImm {
			v = uint32(in.Imm)
		} else {
			v = m.read(in.Dst, 4)
		}
		st.R[x86.ESP] -= 4
		m.Mem.Write32(st.R[x86.ESP], v)

	case x86.POP:
		v := m.Mem.Read32(st.R[x86.ESP])
		st.R[x86.ESP] += 4
		m.write(in.Dst, v, 4)

	case x86.XCHG:
		a := m.read(in.Dst, w)
		b := m.read(in.Src, w)
		m.write(in.Dst, b, w)
		m.write(in.Src, a, w)

	case x86.CMOVCC:
		if in.Cond.Holds(st.Flags) {
			m.write(in.Dst, m.read(in.Src, w), w)
		}

	case x86.ROL, x86.ROR:
		a := m.read(in.Dst, w)
		var count uint8
		if in.HasImm {
			count = uint8(in.Imm)
		} else {
			count = uint8(st.R[x86.ECX])
		}
		var res uint32
		var fl x86.Flags
		if in.Op == x86.ROL {
			res, fl = x86.FlagsRol(st.Flags, a, count, w)
		} else {
			res, fl = x86.FlagsRor(st.Flags, a, count, w)
		}
		st.Flags = fl
		m.write(in.Dst, res, w)

	case x86.SETCC:
		var v uint32
		if in.Cond.Holds(st.Flags) {
			v = 1
		}
		m.write(in.Dst, v, 1)

	case x86.CDQ:
		st.R[x86.EDX] = uint32(int32(st.R[x86.EAX]) >> 31)

	case x86.JCC:
		if in.Cond.Holds(st.Flags) {
			st.EIP = in.BranchTarget(st.EIP)
			m.Icount++
			return nil
		}

	case x86.JMP:
		if in.Src.Kind != x86.KindNone {
			st.EIP = m.read(in.Src, 4)
		} else {
			st.EIP = in.BranchTarget(st.EIP)
		}
		m.Icount++
		return nil

	case x86.CALL:
		var target uint32
		if in.Src.Kind != x86.KindNone {
			target = m.read(in.Src, 4)
		} else {
			target = in.BranchTarget(st.EIP)
		}
		st.R[x86.ESP] -= 4
		m.Mem.Write32(st.R[x86.ESP], next)
		st.EIP = target
		m.Icount++
		return nil

	case x86.RET:
		st.EIP = m.Mem.Read32(st.R[x86.ESP])
		st.R[x86.ESP] += 4
		if in.HasImm {
			st.R[x86.ESP] += uint32(in.Imm)
		}
		m.Icount++
		return nil

	case x86.MUL1:
		a := uint64(st.R[x86.EAX])
		b := uint64(m.read(in.Src, 4))
		full := a * b
		st.R[x86.EAX] = uint32(full)
		st.R[x86.EDX] = uint32(full >> 32)
		st.Flags = st.Flags &^ (x86.FlagCF | x86.FlagOF)
		if st.R[x86.EDX] != 0 {
			st.Flags |= x86.FlagCF | x86.FlagOF
		}

	case x86.IMUL1:
		a := int64(int32(st.R[x86.EAX]))
		b := int64(int32(m.read(in.Src, 4)))
		full := a * b
		st.R[x86.EAX] = uint32(full)
		st.R[x86.EDX] = uint32(full >> 32)
		st.Flags = st.Flags &^ (x86.FlagCF | x86.FlagOF)
		if full != int64(int32(full)) {
			st.Flags |= x86.FlagCF | x86.FlagOF
		}

	case x86.DIV:
		divisor := uint64(m.read(in.Src, 4))
		if divisor == 0 {
			return ErrDivide
		}
		dividend := uint64(st.R[x86.EDX])<<32 | uint64(st.R[x86.EAX])
		q := dividend / divisor
		if q > 0xFFFFFFFF {
			return ErrDivide
		}
		st.R[x86.EAX] = uint32(q)
		st.R[x86.EDX] = uint32(dividend % divisor)

	case x86.IDIV:
		divisor := int64(int32(m.read(in.Src, 4)))
		if divisor == 0 {
			return ErrDivide
		}
		dividend := int64(uint64(st.R[x86.EDX])<<32 | uint64(st.R[x86.EAX]))
		q := dividend / divisor
		if q > 0x7FFFFFFF || q < -0x80000000 {
			return ErrDivide
		}
		st.R[x86.EAX] = uint32(int32(q))
		st.R[x86.EDX] = uint32(int32(dividend % divisor))

	case x86.MOVS:
		m.doMovs(in)

	case x86.STOS:
		m.doStos(in)

	default:
		return fmt.Errorf("interp: unsupported op %v at %#x", in.Op, st.EIP)
	}

	st.EIP = next
	m.Icount++
	return nil
}

func (m *Machine) doMovs(in *x86.Inst) {
	st := m.St
	step := uint32(in.Width)
	count := uint32(1)
	if in.Rep {
		count = st.R[x86.ECX]
		st.R[x86.ECX] = 0
	}
	for i := uint32(0); i < count; i++ {
		v := m.Mem.ReadWidth(st.R[x86.ESI], in.Width)
		m.Mem.WriteWidth(st.R[x86.EDI], v, in.Width)
		st.R[x86.ESI] += step
		st.R[x86.EDI] += step
	}
}

func (m *Machine) doStos(in *x86.Inst) {
	st := m.St
	step := uint32(in.Width)
	count := uint32(1)
	if in.Rep {
		count = st.R[x86.ECX]
		st.R[x86.ECX] = 0
	}
	v := st.ReadReg(x86.EAX, in.Width)
	for i := uint32(0); i < count; i++ {
		m.Mem.WriteWidth(st.R[x86.EDI], v, in.Width)
		st.R[x86.EDI] += step
	}
}

// aluOp applies a two-operand ALU operation and returns the result and
// resulting flags.
func aluOp(op x86.Op, a, b uint32, old x86.Flags, w uint8) (uint32, x86.Flags) {
	mask, _ := widthMaskOf(w)
	a &= mask
	b &= mask
	switch op {
	case x86.ADD:
		return (a + b) & mask, x86.FlagsAdd(a, b, w)
	case x86.ADC:
		c := uint32(0)
		if old.Test(x86.FlagCF) {
			c = 1
		}
		return (a + b + c) & mask, x86.FlagsAdc(a, b, c == 1, w)
	case x86.SUB, x86.CMP:
		return (a - b) & mask, x86.FlagsSub(a, b, w)
	case x86.SBB:
		c := uint32(0)
		if old.Test(x86.FlagCF) {
			c = 1
		}
		return (a - b - c) & mask, x86.FlagsSbb(a, b, c == 1, w)
	case x86.AND:
		return a & b, x86.FlagsLogic(a&b, w)
	case x86.OR:
		return a | b, x86.FlagsLogic(a|b, w)
	case x86.XOR:
		return a ^ b, x86.FlagsLogic(a^b, w)
	}
	return 0, old
}

func widthMaskOf(w uint8) (uint32, uint32) {
	switch w {
	case 1:
		return 0xFF, 0x80
	case 2:
		return 0xFFFF, 0x8000
	default:
		return 0xFFFFFFFF, 0x80000000
	}
}
