package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"codesignvm/internal/workload"
)

// sweepApps is a sweep workload's input: the seed picks k of the
// suite's applications, kept in suite order (report order follows it).
func sweepApps(seed int64, k int) []string {
	names := workload.Names()
	if k > len(names) {
		k = len(names)
	}
	idx := rand.New(rand.NewSource(seed)).Perm(len(names))[:k]
	sort.Ints(idx)
	apps := make([]string, k)
	for i, j := range idx {
		apps[i] = names[j]
	}
	return apps
}

// sweepArgs is the vmsim command line of one sweep: the input flags
// and the store (none when store is empty), nothing that selects a
// host mode.
func sweepArgs(scale int, apps []string, store string) []string {
	args := []string{"-exp", "sweep", "-scale", strconv.Itoa(scale), "-apps", strings.Join(apps, ",")}
	if store != "" {
		args = append(args, "-store", store)
	}
	return args
}

// jobSpec is one serve-mix job: a single-app report experiment, in the
// JSON shape POST /jobs accepts (docs/api.md).
type jobSpec struct {
	Exp   string   `json:"exp"`
	Apps  []string `json:"apps"`
	App   string   `json:"app"`
	Scale int      `json:"scale"`
}

func (s jobSpec) key() string { return fmt.Sprintf("exp=%s app=%s scale=%d", s.Exp, s.App, s.Scale) }

// cliArgs is the vmsim command line whose stdout the job's result must
// equal byte for byte, wall-clock lines aside.
func (s jobSpec) cliArgs() []string {
	return []string{"-exp", s.Exp, "-apps", strings.Join(s.Apps, ","), "-app", s.App, "-scale", strconv.Itoa(s.Scale)}
}

// serveExps are the report experiments serve-mix submits: the paper's
// figures plus warm start (codecache persist) and phases (attribution).
var serveExps = []string{"fig2", "fig3", "fig8", "fig9", "fig10", "fig11", "warmstart", "phases"}

// arrival is one scheduled submission of the open-loop generator.
type arrival struct {
	Due    time.Duration // offset from the start of the stream
	Spec   jobSpec
	Repeat bool // an earlier arrival's spec, answered by store or dedupe
}

// serveSchedule draws serve-mix's job stream of n arrivals from the
// seed. The fresh specs are every experiment of serveExps on apps
// applications (the seed picks them) at serveScale, in seeded order;
// the remaining arrivals repeat a random earlier spec. Every seed thus
// asks for the same work in a different order and on different
// applications, whose costs are close. Gaps are the mean 1/serveRate
// jittered uniformly in [0.5, 1.5] of it, which keeps bursts far
// inside the service's token bucket, and scaled so every stream spans
// the same time.
func serveSchedule(seed int64, n, apps int) []arrival {
	r := rand.New(rand.NewSource(seed))
	names := workload.Names()
	perm := r.Perm(len(names))
	var fresh []jobSpec
	for k := 0; k < min(apps, len(names)); k++ {
		app := names[perm[k]]
		for _, exp := range serveExps {
			fresh = append(fresh, jobSpec{Exp: exp, Apps: []string{app}, App: app, Scale: serveScale})
		}
	}
	r.Shuffle(len(fresh), func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
	if len(fresh) > n {
		fresh = fresh[:n]
	}
	repeats := n - len(fresh)
	// Jittered gaps, rescaled so the stream always spans (n-1)/rate.
	gaps := make([]float64, n)
	sum := 0.0
	for i := 1; i < n; i++ {
		gaps[i] = 0.5 + r.Float64()
		sum += gaps[i]
	}
	out := make([]arrival, n)
	t := 0.0
	next := 0
	for i := range out {
		if i > 0 {
			t += gaps[i] * float64(n-1) / sum
		}
		out[i].Due = time.Duration(t * float64(time.Second) / serveRate)
		// Place exactly `repeats` repeats, each slot equally likely.
		if i > 0 && repeats > 0 && r.Intn(n-i) < repeats {
			out[i].Spec, out[i].Repeat = out[r.Intn(i)].Spec, true
			repeats--
			continue
		}
		out[i].Spec = fresh[next]
		next++
	}
	return out
}
