// Package vmm implements the virtual machine monitor: the concealed
// runtime that orchestrates staged emulation (Fig. 1b of the paper). It
// owns the code caches, the hotspot detector, the dispatch loop with
// translation chaining, precise-state callouts for complex instructions,
// the timing engine, and per-category cycle accounting used by the
// startup experiments (Figs. 2 and 8-11).
//
// The same runtime, parameterized by Strategy, realizes every machine of
// Table 2: the reference superscalar (pure x86-mode execution), VM.soft
// (software BBT + SBT), VM.be (XLTx86-assisted BBT + SBT), VM.fe
// (dual-mode decoders + SBT) and the interpreter-based staged VM of
// Fig. 2.
//
// # Structure
//
// The dispatch loop (run.go) drives the paper's §2 staged-emulation
// state machine: look up the next architected PC in the code caches,
// execute the translation if present, otherwise fall back to the cold
// path (interpreter, software BBT, XLTx86-assisted BBT or x86-mode
// execution, per Strategy), and promote blocks whose profile counter
// crosses the Eq. 2 hot threshold into superblocks. Mode switches,
// shadow-table bookkeeping for the dual-mode frontend (shadow.go,
// §4.1), and the software jump TLB sit on this path.
//
// Functional execution and timing run inline on one goroutine
// (DESIGN.md §7): each dispatched block executes and is charged against
// the superscalar timing model (timing.go) before the next dispatch.
//
// # Observability
//
// A VM optionally carries an obs.Recorder (SetObserver). When attached,
// the dispatch loop emits structured lifecycle events (translations,
// promotions, chaining, flushes, evictions) and maintains a metrics
// registry snapshot returned in Result.Metrics. When absent the hooks
// cost one nil check; results are identical either way. OBSERVABILITY.md
// documents every metric and event.
package vmm
