package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// span is one timed call into a layer, recorded from the harness
// around the layer's public function. Parent is the index of the span
// that caused it, -1 at top level.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // offset from the tracer's start
	End    int64  `json:"end_ns"`
}

// tracer keeps a traced run's spans in memory; write saves them when
// the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// do runs fn inside a span and returns the span's duration.
func (t *tracer) do(name string, parent int, fn func() error) (time.Duration, error) {
	i := len(t.spans)
	start := time.Now()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(start.Sub(t.t0))})
	err := fn()
	end := time.Now()
	t.spans[i].End = int64(end.Sub(t.t0))
	return end.Sub(start), err
}

// add records a span measured elsewhere.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// open starts a span whose children are recorded inside it; close ends it.
func (t *tracer) open(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) close(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// topSum is the summed duration of the top-level spans that started at
// or after from (an offset from the tracer's start).
func (t *tracer) topSum(from int64) time.Duration {
	var sum int64
	for _, s := range t.spans {
		if s.Parent == -1 && s.Start >= from {
			sum += s.End - s.Start
		}
	}
	return time.Duration(sum)
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// partition measures the traced run's top-level pass: fn records the
// spans that partition the workload's work. The run reports their sum
// next to the pass's wall clock, so uncovered time shows.
func (b *bench) partition(tr *tracer, fn func() error) (time.Duration, error) {
	from := int64(time.Since(tr.t0))
	start := time.Now()
	if err := fn(); err != nil {
		return 0, err
	}
	wall := time.Since(start)
	sum := tr.topSum(from)
	b.set("trace.wall_s", "s", wall.Seconds())
	b.set("trace.span_sum_s", "s", sum.Seconds())
	b.note("traced pass: %.3f s wall, %.3f s in top-level spans (%.1f%% covered)",
		wall.Seconds(), sum.Seconds(), 100*sum.Seconds()/wall.Seconds())
	return wall, nil
}

// overhead reports the tracing overhead: the traced wall clock minus
// the untraced one, measured in the same run.
func (b *bench) overhead(traced, untraced time.Duration) {
	b.set("trace.overhead_s", "s", (traced - untraced).Seconds())
	b.note("tracing overhead: traced %.3f s - untraced %.3f s = %+.3f s",
		traced.Seconds(), untraced.Seconds(), (traced - untraced).Seconds())
}

// saveTrace writes the spans next to the build outputs.
func (b *bench) saveTrace(tr *tracer, name string) error {
	path := filepath.Join(b.root, ".bench_build", fmt.Sprintf("trace-%s-seed%d.json", name, b.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	b.note("spans written to %s", path)
	return nil
}

// selfCPU is the harness process's user plus system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
