package fisa

import (
	"fmt"

	"codesignvm/internal/x86"
)

// NativeState is the implementation-ISA register state. Registers R0-R7
// shadow the architected x86 general-purpose registers; the condition
// flags mirror the architected EFLAGS subset.
type NativeState struct {
	R     [NumRegs]uint32
	Flags x86.Flags
}

// LoadArch copies the architected register state into the native state.
func (n *NativeState) LoadArch(st *x86.State) {
	for i := 0; i < x86.NumRegs; i++ {
		n.R[i] = st.R[i]
	}
	n.Flags = st.Flags
}

// StoreArch copies the architected portion of the native state back into
// an architected state (the precise-state mapping of Fig. 1b).
func (n *NativeState) StoreArch(st *x86.State) {
	for i := 0; i < x86.NumRegs; i++ {
		st.R[i] = n.R[i]
	}
	st.Flags = n.Flags
}

// MemProbe observes data-memory accesses made by translated code.
// Probes are Exec's record-emission hooks: calls arrive in exact
// execution order on the executing goroutine's critical path, so
// implementations must be cheap and allocation-free. The timing model
// implements it to drive the cache hierarchy directly.
type MemProbe interface {
	OnLoad(addr uint32, size uint8)
	OnStore(addr uint32, size uint8)
}

// BranchProbe observes conditional-branch outcomes inside translations
// (UBR micro-ops); the timing model implements it to train the direction
// predictor and charge misprediction stalls. The same ordering and cost
// contract as MemProbe applies: outcomes arrive in execution order.
type BranchProbe interface {
	OnBranch(pc uint32, taken bool)
}

// StopKind says why translation execution stopped.
type StopKind uint8

// Stop reasons.
const (
	StopExit    StopKind = iota // reached an UEXIT micro-op
	StopCallout                 // reached an UCALLOUT (complex instruction)
)

// ExecStats accumulates execution counts for one translation run.
type ExecStats struct {
	Uops       int // micro-ops executed
	Entities   int // issue entities (a fused pair counts once)
	Loads      int
	Stores     int
	Boundaries int // architected instruction boundaries crossed (retired x86 instructions)
	// TakenBranchIdx is the index of the taken UBR that ended the linear
	// execution path (-1 when execution was fall-through throughout).
	// Because every branch target is an exit trampoline, the executed
	// micro-ops are exactly [start..TakenBranchIdx] plus the stopping
	// trampoline.
	TakenBranchIdx int
}

// Env bundles the machine context translations execute against.
type Env struct {
	St     *NativeState
	Mem    *x86.Memory
	Probe  MemProbe    // optional
	Branch BranchProbe // optional
}

func WriteMerged(st *NativeState, dst Reg, v uint32, w uint8) {
	switch w {
	case 1:
		st.R[dst] = st.R[dst]&^uint32(0xFF) | (v & 0xFF)
	case 2:
		st.R[dst] = st.R[dst]&^uint32(0xFFFF) | (v & 0xFFFF)
	default:
		st.R[dst] = v
	}
}

// Exec runs the micro-op sequence starting at index start until it
// reaches an UEXIT or UCALLOUT. It returns the stop kind and the index
// of the stopping micro-op, and fills *out with execution statistics
// (out is reset at entry; the caller owns accumulation across legs).
// The out-parameter shape keeps the 56-byte stats struct off the return
// path of the hottest call in the simulator.
//
// Branch targets (UBR/UJMP immediates) are absolute micro-op indices
// within uops. The function is the single functional-semantics engine for
// all translated-code execution in the VM.
func Exec(env *Env, uops []MicroOp, start int, out *ExecStats) (StopKind, int, error) {
	st := env.St
	mem := env.Mem
	var stats ExecStats
	stats.TakenBranchIdx = -1
	inPair := false // previous µop was a fused head

	for i := start; ; {
		if i < 0 || i >= len(uops) {
			*out = stats
			return 0, 0, fmt.Errorf("fisa: control flow escaped translation (index %d of %d)", i, len(uops))
		}
		u := &uops[i]
		stats.Uops++
		stats.Boundaries += int(u.Boundary)
		if inPair {
			inPair = false
		} else {
			stats.Entities++
			inPair = u.Fused
		}

		switch u.Op {
		case UNOP:

		case UMOVI:
			st.R[u.Dst] = uint32(u.Imm)
		case UMOVIU:
			st.R[u.Dst] = uint32(u.Imm) << 16
		case UORILO:
			st.R[u.Dst] |= uint32(u.Imm) & 0xFFFF

		case UMOV:
			WriteMerged(st, u.Dst, st.R[u.Src1], u.W)

		case UADD, USUB, UADC, USBB, UAND, UOR, UXOR, UMUL:
			a, b := st.R[u.Src1], st.R[u.Src2]
			if u.SetF {
				res, fl := AluCompute(u.Op, a, b, st.Flags, u.W)
				st.Flags = fl
				WriteMerged(st, u.Dst, res, u.W)
			} else {
				WriteMerged(st, u.Dst, AluValue(u.Op, a, b, st.Flags), u.W)
			}

		case UADDI, USUBI, UANDI, UORI, UXORI:
			a, b := st.R[u.Src1], uint32(u.Imm)
			if u.SetF {
				res, fl := AluCompute(ImmBase(u.Op), a, b, st.Flags, u.W)
				st.Flags = fl
				WriteMerged(st, u.Dst, res, u.W)
			} else {
				WriteMerged(st, u.Dst, AluValue(ImmBase(u.Op), a, b, st.Flags), u.W)
			}

		case USHL, USHLI, USHR, USHRI, USAR, USARI, UROL, UROLI, UROR, URORI:
			a := st.R[u.Src1]
			var count uint8
			switch u.Op {
			case USHLI, USHRI, USARI, UROLI, URORI:
				count = uint8(u.Imm)
			default:
				count = uint8(st.R[u.Src2])
			}
			var res uint32
			var fl x86.Flags
			switch u.Op {
			case USHL, USHLI:
				res, fl = x86.FlagsShl(st.Flags, a, count, u.W)
			case USHR, USHRI:
				res, fl = x86.FlagsShr(st.Flags, a, count, u.W)
			case UROL, UROLI:
				res, fl = x86.FlagsRol(st.Flags, a, count, u.W)
			case UROR, URORI:
				res, fl = x86.FlagsRor(st.Flags, a, count, u.W)
			default:
				res, fl = x86.FlagsSar(st.Flags, a, count, u.W)
			}
			if u.SetF {
				st.Flags = fl
			}
			WriteMerged(st, u.Dst, res, u.W)

		case UNEG:
			a := st.R[u.Src1]
			if u.SetF {
				st.Flags = x86.FlagsNeg(a, u.W)
			}
			WriteMerged(st, u.Dst, -a, u.W)

		case UNOT:
			WriteMerged(st, u.Dst, ^st.R[u.Src1], u.W)

		case UINC:
			a := st.R[u.Src1]
			if u.SetF {
				st.Flags = x86.FlagsInc(st.Flags, a, u.W)
			}
			WriteMerged(st, u.Dst, a+1, u.W)

		case UDEC:
			a := st.R[u.Src1]
			if u.SetF {
				st.Flags = x86.FlagsDec(st.Flags, a, u.W)
			}
			WriteMerged(st, u.Dst, a-1, u.W)

		case UMULHU:
			full := uint64(st.R[u.Src1]) * uint64(st.R[u.Src2])
			hi := uint32(full >> 32)
			if u.SetF {
				st.Flags = st.Flags &^ (x86.FlagCF | x86.FlagOF)
				if hi != 0 {
					st.Flags |= x86.FlagCF | x86.FlagOF
				}
			}
			st.R[u.Dst] = hi

		case UMULHS:
			full := int64(int32(st.R[u.Src1])) * int64(int32(st.R[u.Src2]))
			if u.SetF {
				st.Flags = st.Flags &^ (x86.FlagCF | x86.FlagOF)
				if full != int64(int32(full)) {
					st.Flags |= x86.FlagCF | x86.FlagOF
				}
			}
			st.R[u.Dst] = uint32(full >> 32)

		case UDIVQ, UDIVR:
			divisor := uint64(st.R[u.Src1])
			if divisor == 0 {
				*out = stats
				return 0, 0, fmt.Errorf("fisa: divide fault at µop %d", i)
			}
			dividend := uint64(st.R[REDX])<<32 | uint64(st.R[REAX])
			q := dividend / divisor
			if q > 0xFFFFFFFF {
				*out = stats
				return 0, 0, fmt.Errorf("fisa: divide overflow at µop %d", i)
			}
			if u.Op == UDIVQ {
				st.R[u.Dst] = uint32(q)
			} else {
				st.R[u.Dst] = uint32(dividend % divisor)
			}

		case UIDIVQ, UIDIVR:
			divisor := int64(int32(st.R[u.Src1]))
			if divisor == 0 {
				*out = stats
				return 0, 0, fmt.Errorf("fisa: divide fault at µop %d", i)
			}
			dividend := int64(uint64(st.R[REDX])<<32 | uint64(st.R[REAX]))
			q := dividend / divisor
			if q > 0x7FFFFFFF || q < -0x80000000 {
				*out = stats
				return 0, 0, fmt.Errorf("fisa: divide overflow at µop %d", i)
			}
			if u.Op == UIDIVQ {
				st.R[u.Dst] = uint32(int32(q))
			} else {
				st.R[u.Dst] = uint32(int32(dividend % divisor))
			}

		case UEXT8H:
			st.R[u.Dst] = (st.R[u.Src1] >> 8) & 0xFF
		case UINS8H:
			st.R[u.Dst] = st.R[u.Dst]&^uint32(0xFF00) | ((st.R[u.Src1] & 0xFF) << 8)
		case USEXT8:
			st.R[u.Dst] = uint32(int32(int8(st.R[u.Src1])))
		case USEXT16:
			st.R[u.Dst] = uint32(int32(int16(st.R[u.Src1])))
		case UZEXT8:
			st.R[u.Dst] = st.R[u.Src1] & 0xFF
		case UZEXT16:
			st.R[u.Dst] = st.R[u.Src1] & 0xFFFF

		case ULD, ULD8Z, ULD8S, ULD16Z, ULD16S:
			addr := st.R[u.Src1] + uint32(u.Imm)
			stats.Loads++
			if env.Probe != nil {
				env.Probe.OnLoad(addr, u.MemWidth())
			}
			switch u.Op {
			case ULD:
				st.R[u.Dst] = mem.Read32(addr)
			case ULD8Z:
				st.R[u.Dst] = uint32(mem.Read8(addr))
			case ULD8S:
				st.R[u.Dst] = uint32(int32(int8(mem.Read8(addr))))
			case ULD16Z:
				st.R[u.Dst] = uint32(mem.Read16(addr))
			case ULD16S:
				st.R[u.Dst] = uint32(int32(int16(mem.Read16(addr))))
			}

		case UST, UST8, UST16:
			addr := st.R[u.Src1] + uint32(u.Imm)
			stats.Stores++
			if env.Probe != nil {
				env.Probe.OnStore(addr, u.MemWidth())
			}
			switch u.Op {
			case UST:
				mem.Write32(addr, st.R[u.Src2])
			case UST8:
				mem.Write8(addr, uint8(st.R[u.Src2]))
			case UST16:
				mem.Write16(addr, uint16(st.R[u.Src2]))
			}

		case UCMP:
			st.Flags = x86.FlagsSub(st.R[u.Src1], st.R[u.Src2], u.W)
		case UCMPI:
			st.Flags = x86.FlagsSub(st.R[u.Src1], uint32(u.Imm), u.W)
		case UTEST:
			mask := MaskOf(u.W)
			st.Flags = x86.FlagsLogic(st.R[u.Src1]&st.R[u.Src2]&mask, u.W)
		case UTESTI:
			mask := MaskOf(u.W)
			st.Flags = x86.FlagsLogic(st.R[u.Src1]&uint32(u.Imm)&mask, u.W)

		case UCMOV:
			if u.Cond.Holds(st.Flags) {
				WriteMerged(st, u.Dst, st.R[u.Src1], u.W)
			}

		case USETC:
			var v uint32
			if u.Cond.Holds(st.Flags) {
				v = 1
			}
			WriteMerged(st, u.Dst, v, 1)

		case UBR:
			taken := u.Cond.Holds(st.Flags)
			if env.Branch != nil {
				env.Branch.OnBranch(u.X86PC, taken)
			}
			if taken {
				stats.TakenBranchIdx = i
				i = int(u.Imm)
				continue
			}

		case UJMP:
			i = int(u.Imm)
			continue

		case UEXIT:
			*out = stats
			return StopExit, i, nil

		case UCALLOUT:
			*out = stats
			return StopCallout, i, nil

		default:
			*out = stats
			return 0, 0, fmt.Errorf("fisa: cannot execute %v", u.Op)
		}
		i++
	}
}

func MaskOf(w uint8) uint32 {
	switch w {
	case 1:
		return 0xFF
	case 2:
		return 0xFFFF
	default:
		return 0xFFFFFFFF
	}
}

func ImmBase(op Op) Op {
	switch op {
	case UADDI:
		return UADD
	case USUBI:
		return USUB
	case UANDI:
		return UAND
	case UORI:
		return UOR
	case UXORI:
		return UXOR
	}
	return op
}

// AluValue computes just the result of AluCompute for flag-dead ALU
// micro-ops (stack-pointer updates, address arithmetic). Sub-width
// results need no masking here: WriteMerged merges only the low bits,
// and addition/subtraction/multiplication are congruent mod 2^width, so
// the merged value matches AluCompute's masked result bit for bit.
func AluValue(op Op, a, b uint32, old x86.Flags) uint32 {
	switch op {
	case UADD:
		return a + b
	case UADC:
		if old.Test(x86.FlagCF) {
			return a + b + 1
		}
		return a + b
	case USUB:
		return a - b
	case USBB:
		if old.Test(x86.FlagCF) {
			return a - b - 1
		}
		return a - b
	case UAND:
		return a & b
	case UOR:
		return a | b
	case UXOR:
		return a ^ b
	case UMUL:
		return a * b
	}
	return 0
}

func AluCompute(op Op, a, b uint32, old x86.Flags, w uint8) (uint32, x86.Flags) {
	mask := MaskOf(w)
	am, bm := a&mask, b&mask
	switch op {
	case UADD:
		return (am + bm) & mask, x86.FlagsAdd(am, bm, w)
	case UADC:
		c := old.Test(x86.FlagCF)
		cv := uint32(0)
		if c {
			cv = 1
		}
		return (am + bm + cv) & mask, x86.FlagsAdc(am, bm, c, w)
	case USUB:
		return (am - bm) & mask, x86.FlagsSub(am, bm, w)
	case USBB:
		c := old.Test(x86.FlagCF)
		cv := uint32(0)
		if c {
			cv = 1
		}
		return (am - bm - cv) & mask, x86.FlagsSbb(am, bm, c, w)
	case UAND:
		return am & bm, x86.FlagsLogic(am&bm, w)
	case UOR:
		return am | bm, x86.FlagsLogic(am|bm, w)
	case UXOR:
		return am ^ bm, x86.FlagsLogic(am^bm, w)
	case UMUL:
		return x86.FlagsImul(int32(a), int32(b), w)
	}
	return 0, old
}
