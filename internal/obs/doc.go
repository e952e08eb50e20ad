// Package obs is the simulator's observability layer: a
// zero-allocation-on-hot-path metrics registry (counters, gauges,
// histograms with fixed bucket layouts) and a structured stream of VM
// lifecycle events, both designed so that *disabled* observability
// costs essentially nothing on the simulation hot loops.
//
// The paper this repository reproduces (Hu & Smith, "Reducing Startup
// Time in Co-Designed Virtual Machines", ISCA 2006) argues from *where*
// startup cycles go — Eq. 1's MBBT·ΔBBT term, the per-category
// breakdown of Fig. 10 — yet end-of-run figures alone cannot show
// translation-lifecycle behaviour while a run executes: BBT translation
// bursts, superblock promotions at the Eq. 2 threshold, code-cache
// flush storms, shadow-table churn. This package gives every layer of
// the simulator a uniform way to report that activity:
//
//   - Registry / Counter / Gauge / Histogram — typed metrics with
//     atomic operations (safe to read live from a progress printer
//     while the owning run mutates them). Registration allocates;
//     operations on registered metrics do not.
//   - Event / EventKind / Sink — typed lifecycle records (BBT
//     translate, SBT promotion, chain/unchain, cache flush, shadow
//     eviction, JTLB epoch summaries, trace-ring stalls/drains,
//     run-store hits/misses) pushed to a pluggable sink. JSONLSink
//     renders self-describing JSON Lines; CollectSink captures events
//     in memory for tests.
//   - Observer / Recorder — the wiring layer. An Observer is
//     process-wide (one event sink, process-level counters, an
//     aggregate view over runs); Observer.NewRun mints one Recorder
//     per simulation run with its own Registry, whose Snapshot is
//     attached to the run's Result and persisted with it in the run
//     store's CRUN1 records.
//
// The cardinal rule, enforced by tests in internal/vmm: observability
// is purely *observational*. No emission site reads back metric or
// event state to make a simulation decision, so instrumented and
// uninstrumented runs produce byte-identical reported results.
//
// OBSERVABILITY.md at the repository root documents every metric and
// event kind — name, unit, emission site, and cost when enabled and
// disabled — and the cmd/vmsim flags (-metrics, -events, -progress)
// that drive this package from the CLI.
package obs
