// Package metrics post-processes simulation results into the quantities
// the paper plots: normalized aggregate IPC over (log) time, harmonic
// means across benchmarks, breakeven points between machine
// configurations, steady-state IPC estimates, and execution-frequency
// histograms (Fig. 3).
package metrics

import (
	"math"
	"sort"

	"codesignvm/internal/vmm"
)

// Point is one point of a startup curve.
type Point struct {
	Cycles float64
	Value  float64
}

// Curve is a startup curve (monotone in Cycles).
type Curve []Point

// InstrsAt linearly interpolates cumulative instructions at the given
// cycle count from a sample series. Before the first sample it
// interpolates from the origin; past the last it extrapolates flat at
// the final aggregate IPC.
func InstrsAt(samples []vmm.Sample, cycles float64) float64 {
	if len(samples) == 0 || cycles <= 0 {
		return 0
	}
	if cycles <= samples[0].Cycles {
		if samples[0].Cycles == 0 {
			return float64(samples[0].Instrs)
		}
		return float64(samples[0].Instrs) * cycles / samples[0].Cycles
	}
	idx := sort.Search(len(samples), func(i int) bool { return samples[i].Cycles >= cycles })
	if idx >= len(samples) {
		last := samples[len(samples)-1]
		if last.Cycles == 0 {
			return float64(last.Instrs)
		}
		// Extrapolate with the final aggregate rate.
		return float64(last.Instrs) * cycles / last.Cycles
	}
	a, b := samples[idx-1], samples[idx]
	if b.Cycles == a.Cycles {
		return float64(b.Instrs)
	}
	f := (cycles - a.Cycles) / (b.Cycles - a.Cycles)
	return float64(a.Instrs) + f*float64(b.Instrs-a.Instrs)
}

// AggregateIPCCurve returns the aggregate-IPC startup curve sampled at
// the given cycle grid, normalized by refIPC (pass 1 for unnormalized).
func AggregateIPCCurve(samples []vmm.Sample, grid []float64, refIPC float64) Curve {
	out := make(Curve, 0, len(grid))
	for _, c := range grid {
		instr := InstrsAt(samples, c)
		out = append(out, Point{Cycles: c, Value: instr / c / refIPC})
	}
	return out
}

// LogGrid returns an exponentially spaced cycle grid from lo to hi with
// the given number of points per decade.
func LogGrid(lo, hi float64, perDecade int) []float64 {
	if lo <= 0 || hi <= lo || perDecade <= 0 {
		return nil
	}
	var out []float64
	step := math.Pow(10, 1/float64(perDecade))
	for c := lo; c <= hi*1.0001; c *= step {
		out = append(out, c)
	}
	return out
}

// HarmonicMean returns the harmonic mean of positive values (zeros and
// negatives are ignored; returns 0 when nothing remains).
func HarmonicMean(vals []float64) float64 {
	n := 0
	sum := 0.0
	for _, v := range vals {
		if v > 0 {
			sum += 1 / v
			n++
		}
	}
	if n == 0 || sum == 0 {
		return 0
	}
	return float64(n) / sum
}

// Breakeven returns the first cycle count at which the vm series has
// retired at least as many instructions as the ref series, searching on
// an exponential grid with bisection refinement. ok is false when the vm
// never catches up within the overlapping simulated range.
func Breakeven(ref, vm []vmm.Sample) (cycles float64, ok bool) {
	if len(ref) == 0 || len(vm) == 0 {
		return 0, false
	}
	limit := math.Min(ref[len(ref)-1].Cycles, vm[len(vm)-1].Cycles)
	lo := 1.0
	// The curves may touch at the very beginning (both empty); require a
	// minimum time so the answer is meaningful.
	behind := func(c float64) bool { return InstrsAt(vm, c) < InstrsAt(ref, c) }
	// Find the first grid point where vm is ahead.
	prev := lo
	found := -1.0
	for c := lo; c <= limit; c *= 1.05 {
		if !behind(c) {
			found = c
			break
		}
		prev = c
	}
	if found < 0 {
		return 0, false
	}
	if found == lo {
		return lo, true
	}
	// Bisect between prev (behind) and found (ahead).
	for i := 0; i < 40; i++ {
		mid := (prev + found) / 2
		if behind(mid) {
			prev = mid
		} else {
			found = mid
		}
	}
	return found, true
}

// SteadyIPC estimates steady-state IPC from the tail of a run: the
// marginal IPC over the last (1-frac) of retired instructions.
func SteadyIPC(samples []vmm.Sample, frac float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	last := samples[len(samples)-1]
	cut := float64(last.Instrs) * frac
	// Find the earliest sample at/after the cut.
	idx := sort.Search(len(samples), func(i int) bool { return float64(samples[i].Instrs) >= cut })
	if idx >= len(samples)-1 {
		idx = len(samples) - 2
	}
	a := samples[idx]
	dI := float64(last.Instrs - a.Instrs)
	dC := last.Cycles - a.Cycles
	if dC <= 0 {
		return 0
	}
	return dI / dC
}

// Histogram builds the Fig. 3 frequency histogram: bucket i counts
// static instructions whose execution count is in [10^i, 10^(i+1)), and
// dynFrac[i] is the fraction of dynamic instructions they contribute.
type Histogram struct {
	Buckets  []uint64  // static instruction counts per decade bucket
	DynFrac  []float64 // dynamic-instruction share per bucket
	Total    uint64    // total static instructions observed
	DynTotal uint64    // total dynamic instructions
}

// BuildHistogram aggregates per-instruction execution counts into decade
// buckets (1+, 10+, 100+, ... 10M+). The counts come in two parts that
// share no instruction: dense holds one count per address of a code
// range (0 where nothing ran) and sparse the instructions outside it.
func BuildHistogram(dense []uint32, sparse map[uint32]uint64) Histogram {
	const nb = 8
	h := Histogram{Buckets: make([]uint64, nb), DynFrac: make([]float64, nb)}
	var dyn [nb]uint64
	add := func(c uint64) {
		if c == 0 {
			return
		}
		b := 0
		for v := c; v >= 10 && b < nb-1; v /= 10 {
			b++
		}
		h.Buckets[b]++
		dyn[b] += c
		h.Total++
		h.DynTotal += c
	}
	for _, c := range dense {
		add(uint64(c))
	}
	for _, c := range sparse {
		add(c)
	}
	for i := range dyn {
		if h.DynTotal > 0 {
			h.DynFrac[i] = float64(dyn[i]) / float64(h.DynTotal)
		}
	}
	return h
}

// BucketLabels names the histogram buckets.
func BucketLabels() []string {
	return []string{"1+", "10+", "100+", "1K+", "10K+", "100K+", "1M+", "10M+"}
}
