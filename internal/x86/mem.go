package x86

// PageSize is the granularity of the sparse memory map.
const PageSize = 4096

type page [PageSize]byte

// tlbSize is the size of the host-side page-translation cache. The hot
// loop alternates between a handful of pages (code, data, stack), so a
// small direct-mapped cache turns nearly every map lookup into an
// array probe.
const tlbSize = 64

// noPage is an impossible page index (the address space has 2^20
// pages).
const noPage = ^uint32(0)

type tlbEntry struct {
	idx uint32 // page index, for reads
	// widx is the page index for stores: idx, or noPage while the page
	// is watched (see WatchCode), so a store to a watched page takes
	// ensure's slow path with no extra test on the fast one.
	widx uint32
	p    *page
}

// pageRef is one entry of the page map. wmask is noPage while the page
// is watched (see WatchCode) and 0 otherwise, so idx|wmask is the
// page's widx in the translation cache.
type pageRef struct {
	p     *page
	wmask uint32
}

// Memory is a sparse, paged, little-endian 32-bit address space. Reads of
// unmapped memory return zero bytes; writes allocate pages on demand.
//
// Memory also keeps a code-page write watch for decoders that cache
// what they decoded (interp.Machine does). A decoder calls WatchCode on
// every page its decodes read and drops its cache when CodeGen moves.
// The first store to a watched page moves the generation and clears
// every watch, since every decoder drops everything it cached when the
// generation moves. The watch flag lives in the page map and its
// translation cache, so a store pays no extra branch.
type Memory struct {
	pages map[uint32]pageRef

	// Direct-mapped translation cache over pages (host-side only; no
	// simulated-machine semantics).
	tlb [tlbSize]tlbEntry

	codeGen uint64   // moves on the first store to a watched page
	watched []uint32 // indices of the watched pages
}

// NewMemory returns an empty address space.
func NewMemory() *Memory {
	m := &Memory{pages: make(map[uint32]pageRef)}
	for i := range m.tlb {
		m.tlb[i].idx, m.tlb[i].widx = noPage, noPage
	}
	return m
}

func (m *Memory) lookup(addr uint32) *page {
	idx := addr / PageSize
	e := &m.tlb[idx%tlbSize]
	if e.idx == idx {
		return e.p
	}
	r := m.pages[idx]
	if r.p != nil {
		*e = tlbEntry{idx: idx, widx: idx | r.wmask, p: r.p}
	}
	return r.p
}

func (m *Memory) ensure(addr uint32) *page {
	idx := addr / PageSize
	if e := &m.tlb[idx%tlbSize]; e.widx == idx {
		return e.p
	}
	return m.ensureSlow(idx)
}

// ensureSlow is ensure's path for a translation-cache miss or a store
// to a watched page idx. It maps the page if it is not mapped yet, and a
// store to a watched page moves the code generation and clears every
// watch.
//
//go:noinline
func (m *Memory) ensureSlow(idx uint32) *page {
	r := m.pages[idx]
	if r.p == nil {
		r.p = new(page)
		m.pages[idx] = r
	}
	if r.wmask != 0 {
		m.codeGen++
		for _, w := range m.watched {
			m.pages[w] = pageRef{p: m.pages[w].p}
			if e := &m.tlb[w%tlbSize]; e.idx == w {
				e.widx = w
			}
		}
		m.watched = m.watched[:0]
	}
	m.tlb[idx%tlbSize] = tlbEntry{idx: idx, widx: idx, p: r.p}
	return r.p
}

// WatchCode watches the page holding addr for stores: until CodeGen
// next moves, the first store to that page moves it. The page is mapped
// if it was not, which changes no byte a read returns.
func (m *Memory) WatchCode(addr uint32) {
	idx := addr / PageSize
	r := m.pages[idx]
	if r.wmask != 0 {
		return
	}
	if r.p == nil {
		r.p = new(page)
	}
	r.wmask = noPage
	m.pages[idx] = r
	m.watched = append(m.watched, idx)
	if e := &m.tlb[idx%tlbSize]; e.idx == idx {
		e.widx = noPage
	}
}

// CodeGen returns the code generation, which moves on the first store
// to a watched page. A decode cached at one generation is valid while
// CodeGen returns the same value.
func (m *Memory) CodeGen() uint64 { return m.codeGen }

// Read8 reads one byte.
func (m *Memory) Read8(addr uint32) uint8 {
	p := m.lookup(addr)
	if p == nil {
		return 0
	}
	return p[addr%PageSize]
}

// Write8 writes one byte.
func (m *Memory) Write8(addr uint32, v uint8) {
	m.ensure(addr)[addr%PageSize] = v
}

// Read16 reads a little-endian 16-bit value (may straddle pages).
func (m *Memory) Read16(addr uint32) uint16 {
	off := addr % PageSize
	if off+2 <= PageSize {
		p := m.lookup(addr)
		if p == nil {
			return 0
		}
		return uint16(p[off]) | uint16(p[off+1])<<8
	}
	return uint16(m.Read8(addr)) | uint16(m.Read8(addr+1))<<8
}

// Write16 writes a little-endian 16-bit value.
func (m *Memory) Write16(addr uint32, v uint16) {
	off := addr % PageSize
	if off+2 <= PageSize {
		p := m.ensure(addr)
		p[off] = byte(v)
		p[off+1] = byte(v >> 8)
		return
	}
	m.Write8(addr, uint8(v))
	m.Write8(addr+1, uint8(v>>8))
}

// Read32 reads a little-endian 32-bit value.
func (m *Memory) Read32(addr uint32) uint32 {
	off := addr % PageSize
	if off+4 <= PageSize {
		p := m.lookup(addr)
		if p == nil {
			return 0
		}
		return uint32(p[off]) | uint32(p[off+1])<<8 | uint32(p[off+2])<<16 | uint32(p[off+3])<<24
	}
	return uint32(m.Read16(addr)) | uint32(m.Read16(addr+2))<<16
}

// Write32 writes a little-endian 32-bit value.
func (m *Memory) Write32(addr uint32, v uint32) {
	off := addr % PageSize
	if off+4 <= PageSize {
		p := m.ensure(addr)
		p[off] = byte(v)
		p[off+1] = byte(v >> 8)
		p[off+2] = byte(v >> 16)
		p[off+3] = byte(v >> 24)
		return
	}
	m.Write16(addr, uint16(v))
	m.Write16(addr+2, uint16(v>>16))
}

// ReadWidth reads a value of the given width (1, 2 or 4 bytes).
func (m *Memory) ReadWidth(addr uint32, width uint8) uint32 {
	switch width {
	case 1:
		return uint32(m.Read8(addr))
	case 2:
		return uint32(m.Read16(addr))
	default:
		return m.Read32(addr)
	}
}

// WriteWidth writes a value of the given width (1, 2 or 4 bytes).
func (m *Memory) WriteWidth(addr uint32, v uint32, width uint8) {
	switch width {
	case 1:
		m.Write8(addr, uint8(v))
	case 2:
		m.Write16(addr, uint16(v))
	default:
		m.Write32(addr, v)
	}
}

// ReadBytes copies len(dst) bytes starting at addr into dst and returns
// dst.
func (m *Memory) ReadBytes(addr uint32, dst []byte) []byte {
	for n := 0; n < len(dst); {
		a := addr + uint32(n)
		off := a % PageSize
		chunk := dst[n:min(len(dst), n+int(PageSize-off))]
		if p := m.lookup(a); p != nil {
			copy(chunk, p[off:])
		} else {
			clear(chunk)
		}
		n += len(chunk)
	}
	return dst
}

// WriteBytes stores b at addr.
func (m *Memory) WriteBytes(addr uint32, b []byte) {
	for i, v := range b {
		m.Write8(addr+uint32(i), v)
	}
}

// MappedPages returns the number of allocated pages (for footprint
// accounting in tests and tools).
func (m *Memory) MappedPages() int { return len(m.pages) }

// Equal reports whether two address spaces hold the same byte at every
// address. An unmapped page equals a page of zeros.
func (m *Memory) Equal(o *Memory) bool {
	var zero page
	for idx, r := range m.pages {
		if q := o.pages[idx].p; q != nil && *q != *r.p || q == nil && *r.p != zero {
			return false
		}
	}
	for idx, r := range o.pages {
		if m.pages[idx].p == nil && *r.p != zero {
			return false
		}
	}
	return true
}

// State is the architected register state of the machine.
type State struct {
	R     [NumRegs]uint32
	EIP   uint32
	Flags Flags
}

// Reg8 reads a byte register (encodings 4-7 select high bytes AH..BH).
func (s *State) Reg8(code Reg) uint32 {
	if code < 4 {
		return s.R[code] & 0xFF
	}
	return (s.R[code-4] >> 8) & 0xFF
}

// SetReg8 writes a byte register, merging into the containing GPR.
func (s *State) SetReg8(code Reg, v uint32) {
	if code < 4 {
		s.R[code] = s.R[code]&^uint32(0xFF) | (v & 0xFF)
	} else {
		r := code - 4
		s.R[r] = s.R[r]&^uint32(0xFF00) | ((v & 0xFF) << 8)
	}
}

// ReadReg reads a register at the given width. For width 1 the IA-32
// byte-register encoding applies.
func (s *State) ReadReg(code Reg, width uint8) uint32 {
	switch width {
	case 1:
		return s.Reg8(code)
	case 2:
		return s.R[code] & 0xFFFF
	default:
		return s.R[code]
	}
}

// WriteReg writes a register at the given width, merging sub-width
// results into the low bits as IA-32 does.
func (s *State) WriteReg(code Reg, v uint32, width uint8) {
	switch width {
	case 1:
		s.SetReg8(code, v)
	case 2:
		s.R[code] = s.R[code]&^uint32(0xFFFF) | (v & 0xFFFF)
	default:
		s.R[code] = v
	}
}

// EffAddr computes the effective address of a memory operand.
func (s *State) EffAddr(op Operand) uint32 {
	addr := uint32(op.Disp)
	if op.Base != NoBase {
		addr += s.R[op.Base]
	}
	if op.Index != NoIndex {
		addr += s.R[op.Index] * uint32(op.Scale)
	}
	return addr
}

// Equal reports whether two states have identical architected contents.
func (s *State) Equal(o *State) bool {
	return s.R == o.R && s.EIP == o.EIP && s.Flags&FlagsAll == o.Flags&FlagsAll
}
