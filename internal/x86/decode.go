package x86

import (
	"errors"
	"fmt"
)

// MaxInstLen is the maximum encoded instruction length accepted by the
// decoder (IA-32 architectural limit).
const MaxInstLen = 15

// Decoding errors.
var (
	ErrTruncated = errors.New("x86: truncated instruction")
	ErrBadOpcode = errors.New("x86: invalid or unsupported opcode")
	ErrTooLong   = errors.New("x86: instruction exceeds 15 bytes")
)

// decoder is a cursor over an instruction byte stream.
type decoder struct {
	code []byte
	pos  int
}

func (d *decoder) u8() (uint8, error) {
	if d.pos >= len(d.code) {
		return 0, ErrTruncated
	}
	b := d.code[d.pos]
	d.pos++
	return b, nil
}

func (d *decoder) u16() (uint16, error) {
	lo, err := d.u8()
	if err != nil {
		return 0, err
	}
	hi, err := d.u8()
	if err != nil {
		return 0, err
	}
	return uint16(lo) | uint16(hi)<<8, nil
}

func (d *decoder) u32() (uint32, error) {
	lo, err := d.u16()
	if err != nil {
		return 0, err
	}
	hi, err := d.u16()
	if err != nil {
		return 0, err
	}
	return uint32(lo) | uint32(hi)<<16, nil
}

// imm reads an immediate of the given width, sign-extended to 32 bits.
func (d *decoder) imm(width uint8) (int32, error) {
	switch width {
	case 1:
		v, err := d.u8()
		return int32(int8(v)), err
	case 2:
		v, err := d.u16()
		return int32(int16(v)), err
	default:
		v, err := d.u32()
		return int32(v), err
	}
}

// modrm decodes a ModRM byte (plus SIB and displacement) returning the
// reg field and the r/m operand.
func (d *decoder) modrm() (reg uint8, rm Operand, err error) {
	b, err := d.u8()
	if err != nil {
		return 0, Operand{}, err
	}
	mod := b >> 6
	reg = (b >> 3) & 7
	rmBits := b & 7

	if mod == 3 {
		return reg, R(Reg(rmBits)), nil
	}

	op := Operand{Kind: KindMem, Base: int8(rmBits), Index: NoIndex, Scale: 1}
	if rmBits == 4 { // SIB byte follows
		sib, err := d.u8()
		if err != nil {
			return 0, Operand{}, err
		}
		scale := uint8(1) << (sib >> 6)
		index := (sib >> 3) & 7
		base := sib & 7
		op.Scale = scale
		if index != 4 {
			op.Index = int8(index)
		}
		op.Base = int8(base)
		if base == 5 && mod == 0 {
			op.Base = NoBase
			disp, err := d.u32()
			if err != nil {
				return 0, Operand{}, err
			}
			op.Disp = int32(disp)
			return reg, op, nil
		}
	} else if rmBits == 5 && mod == 0 { // absolute disp32
		op.Base = NoBase
		disp, err := d.u32()
		if err != nil {
			return 0, Operand{}, err
		}
		op.Disp = int32(disp)
		return reg, op, nil
	}

	switch mod {
	case 1:
		v, err := d.u8()
		if err != nil {
			return 0, Operand{}, err
		}
		op.Disp = int32(int8(v))
	case 2:
		v, err := d.u32()
		if err != nil {
			return 0, Operand{}, err
		}
		op.Disp = int32(v)
	}
	return reg, op, nil
}

// aluOps maps the row of an ALU-block opcode (0x00..0x3F, op>>3) to
// its operation.
var aluOps = [8]Op{ADD, OR, ADC, SBB, AND, SUB, XOR, CMP}

// Decode decodes a single instruction from code. On success the returned
// instruction's Len field gives the number of bytes consumed.
func Decode(code []byte) (Inst, error) {
	d := decoder{code: code}
	var in Inst
	in.Width = 4

	// Prefixes.
	for {
		if d.pos >= len(d.code) {
			return in, ErrTruncated
		}
		switch d.code[d.pos] {
		case 0x66:
			in.Width = 2
			d.pos++
			continue
		case 0xF3:
			in.Rep = true
			d.pos++
			continue
		}
		break
	}

	op, err := d.u8()
	if err != nil {
		return in, err
	}

	// ALU block: 0x00..0x3D excluding the escape/other rows.
	if op < 0x40 && op&7 <= 5 {
		if err := decodeALU(&d, &in, aluOps[op>>3], op&7); err != nil {
			return in, err
		}
		return finish(&d, in)
	}

	switch {
	case op == 0x0F:
		if err := decode0F(&d, &in); err != nil {
			return in, err
		}
	case op >= 0x40 && op <= 0x47:
		in.Op, in.Dst = INC, R(Reg(op-0x40))
	case op >= 0x48 && op <= 0x4F:
		in.Op, in.Dst = DEC, R(Reg(op-0x48))
	case op >= 0x50 && op <= 0x57:
		in.Op, in.Dst = PUSH, R(Reg(op-0x50))
	case op >= 0x58 && op <= 0x5F:
		in.Op, in.Dst = POP, R(Reg(op-0x58))
	case op == 0x68:
		in.Op = PUSH
		in.Imm, err = d.imm(4)
		in.HasImm = true
	case op == 0x6A:
		in.Op = PUSH
		in.Imm, err = d.imm(1)
		in.HasImm = true
	case op == 0x69 || op == 0x6B:
		in.Op = IMUL
		reg, rm, e := d.modrm()
		if e != nil {
			return in, e
		}
		in.Dst = R(Reg(reg))
		in.Src = rm
		iw := in.Width
		if op == 0x6B {
			iw = 1
		}
		in.Imm, err = d.imm(iw)
		in.HasImm = true
	case op >= 0x70 && op <= 0x7F:
		in.Op, in.Cond = JCC, Cond(op-0x70)
		in.Imm, err = d.imm(1)
		in.HasImm = true
	case op == 0x80 || op == 0x81 || op == 0x83:
		grp1 := [8]Op{ADD, OR, ADC, SBB, AND, SUB, XOR, CMP}
		reg, rm, e := d.modrm()
		if e != nil {
			return in, e
		}
		in.Op = grp1[reg]
		in.Dst = rm
		switch op {
		case 0x80:
			in.Width = 1
			in.Imm, err = d.imm(1)
		case 0x81:
			in.Imm, err = d.imm(in.Width)
		case 0x83:
			in.Imm, err = d.imm(1)
		}
		in.HasImm = true
	case op == 0x86 || op == 0x87:
		in.Op = XCHG
		if op == 0x86 {
			in.Width = 1
		}
		reg, rm, e := d.modrm()
		if e != nil {
			return in, e
		}
		in.Dst = rm
		in.Src = R(Reg(reg))
	case op == 0x84 || op == 0x85:
		in.Op = TEST
		if op == 0x84 {
			in.Width = 1
		}
		reg, rm, e := d.modrm()
		if e != nil {
			return in, e
		}
		in.Dst = rm
		in.Src = R(Reg(reg))
	case op == 0x88 || op == 0x89:
		in.Op = MOV
		if op == 0x88 {
			in.Width = 1
		}
		reg, rm, e := d.modrm()
		if e != nil {
			return in, e
		}
		in.Dst = rm
		in.Src = R(Reg(reg))
	case op == 0x8A || op == 0x8B:
		in.Op = MOV
		if op == 0x8A {
			in.Width = 1
		}
		reg, rm, e := d.modrm()
		if e != nil {
			return in, e
		}
		in.Dst = R(Reg(reg))
		in.Src = rm
	case op == 0x8D:
		in.Op = LEA
		reg, rm, e := d.modrm()
		if e != nil {
			return in, e
		}
		if rm.Kind != KindMem {
			return in, ErrBadOpcode
		}
		in.Dst = R(Reg(reg))
		in.Src = rm
	case op == 0x90:
		in.Op = NOP
	case op == 0x99:
		in.Op = CDQ
	case op == 0xA4 || op == 0xA5:
		in.Op = MOVS
		if op == 0xA4 {
			in.Width = 1
		}
	case op == 0xAA || op == 0xAB:
		in.Op = STOS
		if op == 0xAA {
			in.Width = 1
		}
	case op >= 0xB0 && op <= 0xB7:
		in.Op, in.Width, in.Dst = MOV, 1, R(Reg(op-0xB0))
		in.Imm, err = d.imm(1)
		in.HasImm = true
	case op >= 0xB8 && op <= 0xBF:
		in.Op, in.Dst = MOV, R(Reg(op-0xB8))
		in.Imm, err = d.imm(in.Width)
		in.HasImm = true
	case op == 0xC0 || op == 0xC1:
		if op == 0xC0 {
			in.Width = 1
		}
		reg, rm, e := d.modrm()
		if e != nil {
			return in, e
		}
		if in.Op = shiftOp(reg); in.Op == BAD {
			return in, ErrBadOpcode
		}
		in.Dst = rm
		in.Imm, err = d.imm(1)
		in.HasImm = true
	case op == 0xC2:
		in.Op = RET
		v, e := d.u16()
		if e != nil {
			return in, e
		}
		in.Imm, in.HasImm = int32(v), true
	case op == 0xC3:
		in.Op = RET
	case op == 0xC6 || op == 0xC7:
		in.Op = MOV
		if op == 0xC6 {
			in.Width = 1
		}
		reg, rm, e := d.modrm()
		if e != nil {
			return in, e
		}
		if reg != 0 {
			return in, ErrBadOpcode
		}
		in.Dst = rm
		if op == 0xC6 {
			in.Imm, err = d.imm(1)
		} else {
			in.Imm, err = d.imm(in.Width)
		}
		in.HasImm = true
	case op == 0xD0 || op == 0xD1:
		if op == 0xD0 {
			in.Width = 1
		}
		reg, rm, e := d.modrm()
		if e != nil {
			return in, e
		}
		if in.Op = shiftOp(reg); in.Op == BAD {
			return in, ErrBadOpcode
		}
		in.Dst = rm
		in.Imm, in.HasImm = 1, true
	case op == 0xD2 || op == 0xD3:
		if op == 0xD2 {
			in.Width = 1
		}
		reg, rm, e := d.modrm()
		if e != nil {
			return in, e
		}
		if in.Op = shiftOp(reg); in.Op == BAD {
			return in, ErrBadOpcode
		}
		in.Dst = rm
		in.Src = R(ECX) // count in CL
	case op == 0xE8:
		in.Op = CALL
		in.Imm, err = d.imm(4)
		in.HasImm = true
	case op == 0xE9:
		in.Op = JMP
		in.Imm, err = d.imm(4)
		in.HasImm = true
	case op == 0xEB:
		in.Op = JMP
		in.Imm, err = d.imm(1)
		in.HasImm = true
	case op == 0xF4:
		in.Op = HLT
	case op == 0xF6 || op == 0xF7:
		if op == 0xF6 {
			in.Width = 1
		}
		reg, rm, e := d.modrm()
		if e != nil {
			return in, e
		}
		switch reg {
		case 0:
			in.Op = TEST
			in.Dst = rm
			if op == 0xF6 {
				in.Imm, err = d.imm(1)
			} else {
				in.Imm, err = d.imm(in.Width)
			}
			in.HasImm = true
		case 2:
			in.Op, in.Dst = NOT, rm
		case 3:
			in.Op, in.Dst = NEG, rm
		case 4:
			in.Op, in.Src = MUL1, rm
		case 5:
			in.Op, in.Src = IMUL1, rm
		case 6:
			in.Op, in.Src = DIV, rm
		case 7:
			in.Op, in.Src = IDIV, rm
		default:
			return in, ErrBadOpcode
		}
	case op == 0xFE:
		in.Width = 1
		reg, rm, e := d.modrm()
		if e != nil {
			return in, e
		}
		switch reg {
		case 0:
			in.Op, in.Dst = INC, rm
		case 1:
			in.Op, in.Dst = DEC, rm
		default:
			return in, ErrBadOpcode
		}
	case op == 0xFF:
		reg, rm, e := d.modrm()
		if e != nil {
			return in, e
		}
		switch reg {
		case 0:
			in.Op, in.Dst = INC, rm
		case 1:
			in.Op, in.Dst = DEC, rm
		case 2:
			in.Op, in.Src = CALL, rm
		case 4:
			in.Op, in.Src = JMP, rm
		case 6:
			in.Op, in.Dst = PUSH, rm
		default:
			return in, ErrBadOpcode
		}
	default:
		return in, fmt.Errorf("%w: 0x%02x", ErrBadOpcode, op)
	}
	if err != nil {
		return in, err
	}
	return finish(&d, in)
}

func decodeALU(d *decoder, in *Inst, alu Op, form uint8) error {
	in.Op = alu
	switch form {
	case 0, 1: // rm, r
		if form == 0 {
			in.Width = 1
		}
		reg, rm, err := d.modrm()
		if err != nil {
			return err
		}
		in.Dst = rm
		in.Src = R(Reg(reg))
	case 2, 3: // r, rm
		if form == 2 {
			in.Width = 1
		}
		reg, rm, err := d.modrm()
		if err != nil {
			return err
		}
		in.Dst = R(Reg(reg))
		in.Src = rm
	case 4: // AL, imm8
		in.Width = 1
		in.Dst = R(EAX)
		imm, err := d.imm(1)
		if err != nil {
			return err
		}
		in.Imm, in.HasImm = imm, true
	case 5: // eAX, imm
		in.Dst = R(EAX)
		imm, err := d.imm(in.Width)
		if err != nil {
			return err
		}
		in.Imm, in.HasImm = imm, true
	}
	return nil
}

func decode0F(d *decoder, in *Inst) error {
	op, err := d.u8()
	if err != nil {
		return err
	}
	switch {
	case op >= 0x40 && op <= 0x4F:
		in.Op, in.Cond = CMOVCC, Cond(op-0x40)
		reg, rm, e := d.modrm()
		if e != nil {
			return e
		}
		in.Dst = R(Reg(reg))
		in.Src = rm
		return nil
	case op >= 0x80 && op <= 0x8F:
		in.Op, in.Cond = JCC, Cond(op-0x80)
		in.Imm, err = d.imm(4)
		in.HasImm = true
		return err
	case op >= 0x90 && op <= 0x9F:
		in.Op, in.Cond, in.Width = SETCC, Cond(op-0x90), 1
		reg, rm, e := d.modrm()
		if e != nil {
			return e
		}
		if reg != 0 {
			return ErrBadOpcode
		}
		in.Dst = rm
		return nil
	case op == 0xAF:
		in.Op = IMUL
		reg, rm, e := d.modrm()
		if e != nil {
			return e
		}
		in.Dst = R(Reg(reg))
		in.Src = rm
		return nil
	case op == 0xB6 || op == 0xB7 || op == 0xBE || op == 0xBF:
		if op&0xF8 == 0xB0 {
			in.Op = MOVZX
		} else {
			in.Op = MOVSX
		}
		if op&1 == 0 {
			in.Width = 1 // source width; dst is 32-bit
		} else {
			in.Width = 2
		}
		reg, rm, e := d.modrm()
		if e != nil {
			return e
		}
		in.Dst = R(Reg(reg))
		in.Src = rm
		return nil
	}
	return fmt.Errorf("%w: 0x0f 0x%02x", ErrBadOpcode, op)
}

func shiftOp(reg uint8) Op {
	switch reg {
	case 0:
		return ROL
	case 1:
		return ROR
	case 4:
		return SHL
	case 5:
		return SHR
	case 7:
		return SAR
	}
	return BAD
}

func finish(d *decoder, in Inst) (Inst, error) {
	if d.pos > MaxInstLen {
		return in, ErrTooLong
	}
	in.Len = uint8(d.pos)
	return in, nil
}

// DecodeMem decodes the instruction at addr in memory.
func DecodeMem(m *Memory, addr uint32) (Inst, error) {
	var buf [MaxInstLen]byte
	m.ReadBytes(addr, buf[:])
	return Decode(buf[:])
}

// BranchTarget returns the target address of a direct relative CTI
// located at pc. It panics when called on a non-relative instruction.
func (in *Inst) BranchTarget(pc uint32) uint32 {
	switch in.Op {
	case JCC, JMP, CALL:
		if in.Src.Kind != KindNone {
			panic("x86: BranchTarget on indirect branch")
		}
		return pc + uint32(in.Len) + uint32(in.Imm)
	}
	panic("x86: BranchTarget on non-branch " + in.Op.String())
}

// IsIndirectCTI reports whether the instruction is an indirect jump or
// call (or a RET).
func (in *Inst) IsIndirectCTI() bool {
	switch in.Op {
	case RET:
		return true
	case JMP, CALL:
		return in.Src.Kind != KindNone
	}
	return false
}
