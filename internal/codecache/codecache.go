package codecache

import (
	"fmt"

	"codesignvm/internal/fisa"
)

// TransKind distinguishes translation producers.
type TransKind uint8

// Translation kinds.
const (
	KindBBT TransKind = iota // simple basic-block translation
	KindSBT                  // optimized superblock translation
)

func (k TransKind) String() string {
	if k == KindBBT {
		return "BBT"
	}
	return "SBT"
}

// ExitKind classifies a translation exit.
type ExitKind uint8

// Exit kinds.
const (
	ExitFall     ExitKind = iota // fall through to the next x86 PC
	ExitTaken                    // taken direct branch / jump / call
	ExitIndirect                 // target in a native register (ret, jmp/call reg)
	ExitHalt                     // program termination
	ExitSide                     // superblock side exit (early leave)
)

func (k ExitKind) String() string {
	switch k {
	case ExitFall:
		return "fall"
	case ExitTaken:
		return "taken"
	case ExitIndirect:
		return "indirect"
	case ExitHalt:
		return "halt"
	case ExitSide:
		return "side"
	}
	return "exit?"
}

// Exit describes one way control leaves a translation.
type Exit struct {
	Kind      ExitKind
	Target    uint32       // static architected target (direct exits)
	TargetReg fisa.Reg     // register holding the target (indirect exits)
	BranchPC  uint32       // architected PC of the terminating CTI (0 if none)
	Call      bool         // the CTI is a call (pushes ReturnPC, trains the RAS)
	Ret       bool         // the CTI is a return (predicted via the RAS)
	ReturnPC  uint32       // fall-through PC of a call
	Chained   *Translation // direct chain, nil until linked
	Count     uint64       // taken count (profiling)
}

// ChainRef is one inbound chain edge: exit Exit of From is (or was)
// chained to the translation holding the ref. Gen snapshots From.Gen at
// link time so a ref whose source translation has since been recycled
// (generation bumped by the flush that killed it) is recognized as
// stale and skipped. Refs form an intrusive list through Next, headed
// by the target's In pointer; nodes are carved from the arena of the
// cache holding the target, so they are reclaimed wholesale when that
// cache flushes — which is also when every target's list dies.
type ChainRef struct {
	From *Translation
	Gen  uint32
	Exit int32
	Next *ChainRef
}

// Translation is one unit of translated code resident in a code cache.
type Translation struct {
	Kind    TransKind
	EntryPC uint32 // architected address of the first covered instruction
	Uops    []fisa.MicroOp
	Exits   []Exit

	Addr    uint32 // code-cache address of the first byte
	Size    int    // encoded size in bytes
	NumX86  int    // architected instructions covered
	NumUops int    // micro-ops (excluding nothing; len(Uops))

	// Issue-shape precomputation for the timing model.
	Entities   int       // issue entities (fused pair = 1)
	FusedPairs int       // number of macro-op pairs
	Depth      int       // dependence critical path in issue entities
	CPE        float64   // cycles per entity = max(1/width-bound, depth/entities)
	Meta       []UopMeta // per-micro-op entity shape for the fast timing replay

	X86Bytes int // architected code bytes covered (x86-mode fetch span)

	ExecCount uint64 // executions (software profiling counter)
	Epoch     uint64 // cache epoch the translation belongs to
	Invalid   bool   // superseded (e.g. BBT block replaced by a superblock)
	Shadow    bool   // hardware-decode shadow block (x86-mode / interpreter), not cache-resident

	// Threaded-dispatch support. The dispatch loop follows Chained
	// pointers without validity checks, which is sound only if every
	// event that would invalidate a chain (cache flush, supersede)
	// eagerly severs the inbound chains instead. In heads the list of
	// those inbound edges; Unchain severs them. Gen is the reuse
	// generation: the flush that retires this Translation bumps it
	// before the struct slot can be recycled, so stale ChainRefs (and
	// any other keyed pointer) can detect that the memory now belongs
	// to a different translation.
	In  *ChainRef
	Gen uint32

	// DispCat and Profiled are owner (VM) precomputations for the
	// dispatch fast path: the execution category this translation
	// dispatches under, and whether hotspot detection must run on each
	// entry. Both are fixed for the life of the translation under one
	// strategy.
	DispCat  uint8
	Profiled bool

	// FastExec marks the translation as eligible for the fused
	// execute+timing pass (timing.Engine.ExecBlock): Meta is complete
	// and the micro-op sequence is strictly linear-with-trampolines (no
	// UJMP), so the executed micro-ops equal the charged ranges exactly.
	// Set by timing.AnalyzeWith; zero value (false) selects the split
	// execute-then-replay path.
	FastExec bool
}

// Unchain severs every inbound chain into t: each recorded source exit
// that still points at t is reset to the unlinked state. Refs whose
// source translation has been recycled since (generation mismatch) are
// skipped; refs to dead-but-unrecycled sources are harmless writes.
func (t *Translation) Unchain() {
	for r := t.In; r != nil; r = r.Next {
		if r.From.Gen == r.Gen && r.From.Exits[r.Exit].Chained == t {
			r.From.Exits[r.Exit].Chained = nil
		}
	}
	t.In = nil
}

// FusedFraction returns the fraction of micro-ops covered by macro-op
// pairs (the paper's "% of dynamic micro-ops fused" for this static
// translation).
func (t *Translation) FusedFraction() float64 {
	if t.NumUops == 0 {
		return 0
	}
	return float64(2*t.FusedPairs) / float64(t.NumUops)
}

// Stats aggregates code-cache behaviour.
type Stats struct {
	Inserts      uint64
	Lookups      uint64
	Hits         uint64
	Flushes      uint64
	BytesAlloced uint64
	Chains       uint64
}

// Cache is one code cache region (the VM uses one for BBT code and one
// for SBT code).
type Cache struct {
	Name     string
	Base     uint32 // concealed-memory base address
	Capacity uint32 // bytes

	next  uint32
	table map[uint32]*Translation
	epoch uint64
	stats Stats
	arena *Arena
}

// New returns an empty code cache occupying [base, base+capacity).
// The cache owns an arena: Insert copies translations into arena
// storage and Flush recycles it, so steady-state translation churn
// costs no heap allocation.
func New(name string, base, capacity uint32) *Cache {
	return &Cache{
		Name:     name,
		Base:     base,
		Capacity: capacity,
		next:     base,
		table:    make(map[uint32]*Translation),
		arena:    NewArena(),
	}
}

// Lookup finds the translation for an architected PC.
func (c *Cache) Lookup(pc uint32) *Translation {
	c.stats.Lookups++
	t := c.table[pc]
	if t != nil {
		c.stats.Hits++
	}
	return t
}

// Contains reports whether a translation for pc exists without touching
// the lookup statistics (used by assists and tests).
func (c *Cache) Contains(pc uint32) bool {
	_, ok := c.table[pc]
	return ok
}

// Insert allocates space for the translation, assigns its code-cache
// address, and registers it in the lookup table. The translation is
// copied into the cache's arena, and the arena copy — the identity all
// later lookups and chains resolve to — is returned; the argument may
// be a translator's reusable scratch and is not retained. When the
// region is full the cache is flushed first (coarse-grained eviction,
// as used by most code-cache systems); Insert reports whether a flush
// occurred so the VMM can account for re-translations.
func (c *Cache) Insert(t *Translation) (inserted *Translation, flushed bool, err error) {
	size := uint32(t.Size)
	if size == 0 {
		return nil, false, fmt.Errorf("codecache: translation for %#x has zero size", t.EntryPC)
	}
	if size > c.Capacity {
		return nil, false, fmt.Errorf("codecache: translation (%d bytes) exceeds capacity %d", size, c.Capacity)
	}
	if c.next+size > c.Base+c.Capacity {
		c.Flush()
		flushed = true
	}
	t = c.arena.Commit(t)
	t.Addr = c.next
	t.Epoch = c.epoch
	c.next += size
	// Keep translations 4-byte aligned like the hardware would.
	c.next = (c.next + 3) &^ 3
	c.table[t.EntryPC] = t
	c.stats.Inserts++
	c.stats.BytesAlloced += uint64(size)
	return t, flushed, nil
}

// Flush evicts every translation (the coarse-grained code-cache eviction
// policy). Chains into the flushed epoch become invalid because the
// translations are unreachable afterwards; they are severed eagerly so
// the threaded-dispatch fast path never has to re-validate a chain.
// The arena is then recycled: every dead translation's generation is
// bumped (invalidating any ChainRef recorded against it) and its slab
// aliases dropped before the storage is handed back for reuse. Owners
// holding derived references — the VMM's jump-TLB entries — must
// discard them before the next dispatch (see VM.onBBTFlush /
// onSBTFlush).
func (c *Cache) Flush() {
	for _, t := range c.table {
		t.Unchain()
	}
	for _, t := range c.table {
		t.Gen++
		t.Uops = nil
		t.Exits = nil
		t.Meta = nil
		t.In = nil
	}
	clear(c.table)
	c.arena.Reset()
	c.next = c.Base
	c.epoch++
	c.stats.Flushes++
}

// Epoch returns the current flush epoch; exits chained to a translation
// of an older epoch must not be followed.
func (c *Cache) Epoch() uint64 { return c.epoch }

// Used returns the bytes currently allocated.
func (c *Cache) Used() uint32 { return c.next - c.Base }

// Len returns the number of live translations.
func (c *Cache) Len() int { return len(c.table) }

// Stats returns a copy of the cache statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ForEach visits every live translation.
func (c *Cache) ForEach(fn func(*Translation)) {
	for _, t := range c.table {
		fn(t)
	}
}

// Chain links exit e of from to the translation to (direct chaining).
// Subsequent transitions through this exit bypass the VMM dispatcher.
// The inbound edge is recorded on the target so invalidation (flush,
// supersede) can sever it eagerly. Chain must be called on the cache
// holding to: the edge node is carved from this cache's arena, so its
// lifetime must not exceed the target's.
func (c *Cache) Chain(from *Translation, exitIdx int, to *Translation) {
	from.Exits[exitIdx].Chained = to
	r := c.arena.NewRef()
	r.From = from
	r.Gen = from.Gen
	r.Exit = int32(exitIdx)
	r.Next = to.In
	to.In = r
	c.stats.Chains++
}

// ValidChain returns the chained translation for an exit if the chain is
// still valid in the current epoch, else nil.
func (c *Cache) ValidChain(e *Exit) *Translation {
	t := e.Chained
	if t == nil || t.Epoch != c.epoch {
		return nil
	}
	return t
}
