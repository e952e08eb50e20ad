package interp

import (
	"fmt"
	"math/rand"
	"testing"

	"codesignvm/internal/x86"
	"codesignvm/internal/x86/randasm"
)

// byteSource is a rand.Source that reads one fuzz byte per draw, so each
// mutated byte changes one choice of the emitter. Past the end it draws
// zeros.
type byteSource struct {
	b []byte
	i int
}

func (s *byteSource) Int63() int64 {
	var v byte
	if s.i < len(s.b) {
		v = s.b[s.i]
		s.i++
	}
	return int64(uint64(v) * 0x0101010101010101 >> 1)
}

func (s *byteSource) Seed(int64) {}

// counterAddr holds the loop counter of a fuzz program, outside the
// emitter's data window and stack.
const counterAddr = 0x200000

// fuzzProgram assembles a loop of random instructions from data. Some
// programs store into their own code (or into the unused rest of its
// page), and the entry point sits up to 63 bytes below a page boundary
// so instructions straddle two pages. It returns the code, its base and
// the entry state.
func fuzzProgram(data []byte) ([]byte, uint32, x86.State, int64, error) {
	g := &randasm.Gen{Rand: rand.New(&byteSource{b: data})}
	base := uint32(randasm.CodeBase - g.Rand.Intn(64))
	st := g.RandState()
	st.EIP = base
	a := x86.NewAsm(base)
	a.Label("top")
	for n := 1 + g.Rand.Intn(24); n > 0; n-- {
		target := x86.MAbs(base + uint32(g.Rand.Intn(96)))
		switch g.Rand.Intn(8) {
		case 0:
			a.MovMI(1, target, int32(g.Rand.Intn(256)))
		case 1:
			a.ALUI(x86.ADD, 1, target, 1)
		case 2:
			a.MovMI(4, target, int32(g.Rand.Uint32()))
		default:
			g.Emit(a)
		}
	}
	a.DecM(4, x86.MAbs(counterAddr))
	a.Jcc(x86.CondNE, "top")
	a.Hlt()
	code, err := a.Finalize()
	return code, base, st, g.Rand.Int63(), err
}

// stepUncached is Step without the decode cache: DecodeMem, then Exec.
func stepUncached(m *Machine) (x86.Inst, error) {
	if m.Halted {
		return x86.Inst{}, ErrHalted
	}
	in, err := x86.DecodeMem(m.Mem, m.St.EIP)
	if err != nil {
		return x86.Inst{}, fmt.Errorf("at %#x: %w", m.St.EIP, err)
	}
	return in, m.Exec(in)
}

// FuzzInterpStep checks the decode cache against the uncached path. Fuzz
// bytes drive the random emitter to build a looping program, which runs
// on twin machines: one through Step, one through DecodeMem and Exec.
// After every step the instruction, the error, the architected state and
// the retired count must match, and at the end all of memory.
func FuzzInterpStep(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("decode once"))
	f.Fuzz(func(t *testing.T, data []byte) {
		code, base, st0, seed, err := fuzzProgram(data)
		if err != nil {
			t.Fatalf("assemble: %v", err)
		}
		load := func(st *x86.State) *Machine {
			mem := x86.NewMemory()
			mem.WriteBytes(base, code)
			randasm.FillWindow(mem, seed)
			mem.Write32(counterAddr, 1+uint32(seed&3))
			return New(st, mem)
		}
		stC, stU := st0, st0
		cached, uncached := load(&stC), load(&stU)
		const maxSteps = 400
		for i := 0; i < maxSteps; i++ {
			inC, errC := cached.Step()
			inU, errU := stepUncached(uncached)
			if fmt.Sprint(errC) != fmt.Sprint(errU) {
				t.Fatalf("step %d: error %v, uncached %v", i, errC, errU)
			}
			if errC != nil {
				break
			}
			if inC != inU {
				t.Fatalf("step %d at %#x: decoded %v, uncached %v", i, stU.EIP, inC, inU)
			}
			if stC != stU || cached.Icount != uncached.Icount || cached.Halted != uncached.Halted {
				t.Fatalf("step %d (%v): state %+v, uncached %+v", i, inC, stC, stU)
			}
		}
		if !cached.Mem.Equal(uncached.Mem) {
			t.Fatal("memory differs from the uncached run")
		}
	})
}

// TestStepSeesCodeWrites: a loop that rewrites the immediate of an
// instruction it already ran must run the new immediate on the next
// iteration, and a store to a page holding no decoded code must leave
// the code generation alone.
func TestStepSeesCodeWrites(t *testing.T) {
	const base = 0x400000
	a := x86.NewAsm(base)
	a.MovRI(x86.ECX, 2)
	a.Label("top")
	a.Label("add")
	a.ALUI(x86.ADD, 4, x86.R(x86.EAX), 1) // 83 C0 ib: the immediate is the byte at add+2
	a.Mov(4, x86.MAbs(0x10000000), x86.R(x86.EAX))
	a.Dec(x86.ECX)
	a.Jcc(x86.CondNE, "top")
	a.Hlt()
	addAt, _ := a.LabelAddr("add")
	code, err := a.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	mem := x86.NewMemory()
	mem.WriteBytes(base, code)
	st := &x86.State{EIP: base}
	m := New(st, mem)
	if _, err := m.Run(5); err != nil { // mov ecx; one iteration of the loop
		t.Fatal(err)
	}
	if st.EIP != addAt || st.R[x86.EAX] != 1 {
		t.Fatalf("after one iteration EIP = %#x, EAX = %d; want %#x, 1", st.EIP, st.R[x86.EAX], addAt)
	}
	if g := mem.CodeGen(); g != 0 {
		t.Fatalf("data stores moved the code generation to %d", g)
	}
	mem.Write8(addAt+2, 100)
	if mem.CodeGen() == 0 {
		t.Fatal("a store into decoded code did not move the code generation")
	}
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if !m.Halted || st.R[x86.EAX] != 101 {
		t.Fatalf("EAX = %d (halted %v), want 1 + 100 from the rewritten immediate", st.R[x86.EAX], m.Halted)
	}
}

// TestStepZeroAllocWarmCache: once the decode cache holds a loop, Step
// allocates nothing.
func TestStepZeroAllocWarmCache(t *testing.T) {
	m := load(t, func(a *x86.Asm) {
		a.MovRI(x86.EBX, 0x10000000)
		a.Label("top")
		a.ALUI(x86.ADD, 4, x86.R(x86.EAX), 3)
		a.Mov(4, x86.M(x86.EBX, 0), x86.R(x86.EAX))
		a.Push(x86.EAX)
		a.Pop(x86.EDX)
		a.Jmp("top")
	})
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := m.Step(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm-cache Step allocates %v times per call, want 0", allocs)
	}
}

// TestStepWatchesBothPages: a store to the second page of an instruction
// that straddles two pages must reach the next decode, even when no
// other decode read from that page.
func TestStepWatchesBothPages(t *testing.T) {
	const at = 0x3FFFFE // B8 imm32: the opcode and one byte on the first page
	mem := x86.NewMemory()
	mem.WriteBytes(at, []byte{0xB8, 0x11, 0x22, 0x33, 0x44})
	st := &x86.State{EIP: at}
	m := New(st, mem)
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	mem.Write8(at+4, 0x55)
	st.EIP = at
	if _, err := m.Step(); err != nil {
		t.Fatal(err)
	}
	if st.R[x86.EAX] != 0x55332211 {
		t.Fatalf("EAX = %#x, want 0x55332211 from the rewritten byte", st.R[x86.EAX])
	}
}
