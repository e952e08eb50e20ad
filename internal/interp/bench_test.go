package interp

import (
	"testing"
	"time"

	"codesignvm/internal/workload"
)

// benchScale is the workload scale of the Step benchmarks: the scale of
// the benchmark's sweeps, whose Fig. 3 profile runs through Step.
const benchScale = 1600

// BenchmarkInterpStep times Step on Word's short trace. "warm" steps a
// Machine whose decode cache already holds the trace's code, restarting
// the program when it halts; "first-touch" runs the trace from a fresh
// Machine and memory each iteration, so every first decode is paid.
// Both report ns/step.
func BenchmarkInterpStep(b *testing.B) {
	prog, err := workload.App("Word", benchScale)
	if err != nil {
		b.Fatal(err)
	}
	steps := 100_000_000 / uint64(benchScale)

	b.Run("warm", func(b *testing.B) {
		st := prog.InitState()
		m := New(st, prog.Memory())
		if _, err := m.Run(steps); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if m.Halted {
				*st, m.Halted = *prog.InitState(), false
			}
			if _, err := m.Step(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N), "ns/step")
	})

	b.Run("first-touch", func(b *testing.B) {
		var elapsed time.Duration
		var total uint64
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			m := New(prog.InitState(), prog.Memory())
			b.StartTimer()
			start := time.Now()
			n, err := m.Run(steps)
			elapsed += time.Since(start)
			if err != nil {
				b.Fatal(err)
			}
			total += n
		}
		b.ReportMetric(float64(elapsed.Nanoseconds())/float64(total), "ns/step")
	})
}
