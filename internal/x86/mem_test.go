package x86

import (
	"testing"
	"testing/quick"
)

func TestMemoryBasic(t *testing.T) {
	m := NewMemory()
	if v := m.Read32(0x1000); v != 0 {
		t.Errorf("unmapped read = %#x, want 0", v)
	}
	m.Write32(0x1000, 0xDEADBEEF)
	if v := m.Read32(0x1000); v != 0xDEADBEEF {
		t.Errorf("read back = %#x", v)
	}
	if v := m.Read8(0x1000); v != 0xEF {
		t.Errorf("little-endian low byte = %#x", v)
	}
	if v := m.Read16(0x1002); v != 0xDEAD {
		t.Errorf("high half = %#x", v)
	}
}

func TestMemoryPageStraddle(t *testing.T) {
	m := NewMemory()
	addr := uint32(PageSize - 2)
	m.Write32(addr, 0x11223344)
	if v := m.Read32(addr); v != 0x11223344 {
		t.Errorf("straddling read = %#x", v)
	}
	if v := m.Read16(addr + 2); v != 0x1122 {
		t.Errorf("second page half = %#x", v)
	}
	if m.MappedPages() != 2 {
		t.Errorf("mapped pages = %d, want 2", m.MappedPages())
	}
}

// Property: a 32-bit write followed by reads of any width at any offset
// inside the word is consistent with little-endian layout.
func TestMemoryEndianProperty(t *testing.T) {
	f := func(addr uint32, v uint32) bool {
		m := NewMemory()
		m.Write32(addr, v)
		return m.Read8(addr) == uint8(v) &&
			m.Read8(addr+1) == uint8(v>>8) &&
			m.Read8(addr+2) == uint8(v>>16) &&
			m.Read8(addr+3) == uint8(v>>24) &&
			m.Read16(addr) == uint16(v) &&
			m.Read32(addr) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryBytes(t *testing.T) {
	m := NewMemory()
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	m.WriteBytes(PageSize-4, data)
	got := m.ReadBytes(PageSize-4, make([]byte, 8))
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
		}
	}
}

func TestStateSubRegisters(t *testing.T) {
	var s State
	s.R[EAX] = 0xAABBCCDD
	if s.Reg8(0) != 0xDD { // AL
		t.Errorf("AL = %#x", s.Reg8(0))
	}
	if s.Reg8(4) != 0xCC { // AH
		t.Errorf("AH = %#x", s.Reg8(4))
	}
	s.SetReg8(4, 0x11) // AH = 0x11
	if s.R[EAX] != 0xAABB11DD {
		t.Errorf("EAX after AH write = %#x", s.R[EAX])
	}
	s.WriteReg(EAX, 0x1234, 2)
	if s.R[EAX] != 0xAABB1234 {
		t.Errorf("EAX after AX write = %#x", s.R[EAX])
	}
	if s.ReadReg(EAX, 2) != 0x1234 {
		t.Errorf("AX read = %#x", s.ReadReg(EAX, 2))
	}
}

func TestEffAddr(t *testing.T) {
	var s State
	s.R[EBX] = 0x1000
	s.R[ESI] = 0x10
	cases := []struct {
		op   Operand
		want uint32
	}{
		{M(EBX, 8), 0x1008},
		{MSIB(EBX, ESI, 4, -4), 0x103C},
		{MAbs(0x2000), 0x2000},
		{MSIB(EBX, ESI, 8, 0), 0x1080},
	}
	for _, c := range cases {
		if got := s.EffAddr(c.op); got != c.want {
			t.Errorf("EffAddr(%v) = %#x, want %#x", c.op, got, c.want)
		}
	}
}

// TestMemoryCodeWatch: the first store to a watched page moves the code
// generation and clears every watch, whether the page's translation
// entry was filled by a read, a store or not at all; stores to other
// pages never move it.
func TestMemoryCodeWatch(t *testing.T) {
	m := NewMemory()
	const code, other = 0x400000, 0x10000000
	m.Write32(code, 0x90909090)
	m.WatchCode(code)
	m.WatchCode(code + PageSize) // unmapped: watching maps it
	m.Write32(other, 1)
	if g := m.CodeGen(); g != 0 {
		t.Fatalf("store to an unwatched page moved the generation to %d", g)
	}
	_ = m.Read8(code)
	m.Write8(code+7, 1)
	if g := m.CodeGen(); g != 1 {
		t.Fatalf("generation = %d after a store to a watched page, want 1", g)
	}
	m.Write8(code+PageSize, 1) // its watch was cleared with the first one
	if g := m.CodeGen(); g != 1 {
		t.Fatalf("generation = %d after a store to a cleared watch, want 1", g)
	}
	// Watch again, then evict the page's translation entry with a page
	// that maps to the same slot: the refill must still see the watch.
	m.WatchCode(code)
	m.Write8(code+tlbSize*PageSize, 1)
	m.Write16(code+PageSize-1, 0xFFFF) // straddles into the unwatched page
	if g := m.CodeGen(); g != 2 {
		t.Fatalf("generation = %d after a store through an evicted entry, want 2", g)
	}
	if m.Read8(code+PageSize-1) != 0xFF || m.Read8(code+PageSize) != 0xFF {
		t.Fatal("the store that moved the generation was lost")
	}
}

func TestMemoryEqual(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	a.Write8(0x1234, 0) // a mapped page of zeros equals an unmapped one
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("a page of zeros differs from an unmapped page")
	}
	b.Write8(0x5678, 1)
	if a.Equal(b) || b.Equal(a) {
		t.Fatal("memories differing in one byte compare equal")
	}
	a.Write8(0x5678, 1)
	if !a.Equal(b) {
		t.Fatal("memories with the same bytes compare unequal")
	}
}
