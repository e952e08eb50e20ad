package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smokeConfig is every workload at its smallest size: one app, one
// measured sweep, the eight jobs of one app.
var smokeConfig = config{
	SweepApps:      1,
	ServeApps:      1,
	ServeMinJobs:   len(serveExps),
	Setups:         1,
	MinIters:       1,
	LayerBudget:    time.Millisecond,
	ReplayPrograms: 1,
}

// TestSmokeEveryWorkload builds vmsim from the enclosing checkout and
// runs each workload untraced and traced at the smallest size. Every
// operation must succeed, and the result line must carry every metric
// BENCHMARK.json lists for the kind of run.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds vmsim and runs every workload")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sweep-cold", "sweep-warm", "serve-mix"} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/traced=%v", name, traced), func(t *testing.T) {
				b, err := newBench(smokeConfig, root, 7, time.Second)
				if err != nil {
					t.Fatal(err)
				}
				defer os.RemoveAll(b.work)
				run := workloads[name].run
				want := len(spec.EndToEnd)
				if traced {
					run, want = workloads[name].trace, len(spec.PerLayer)
				}
				if err := run(b); err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := b.report(&out, name, traced); err != nil {
					t.Fatal(err)
				}
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var res result
				if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
					t.Fatalf("last line is not the result object: %v\n%s", err, out.Bytes())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("result %+v: want correct with no failed operations\n%s", res, out.Bytes())
				}
				if len(res.Metrics) != want {
					t.Errorf("%d metrics, BENCHMARK.json lists %d", len(res.Metrics), want)
				}
			})
		}
	}
}

// TestLayerMapCoversPerLayerMetrics checks layermap.json, the record of
// which end-to-end metric and workload each per-layer metric should
// move, against BENCHMARK.json.
func TestLayerMapCoversPerLayerMetrics(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("layermap.json")
	if err != nil {
		t.Fatal(err)
	}
	var lm map[string]struct {
		Moves []string `json:"moves"`
		On    []string `json:"on"`
		NotOn []string `json:"not_on"`
		Why   string   `json:"why"`
	}
	if err := json.Unmarshal(data, &lm); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		listed[m.Name] = true
	}
	for _, m := range spec.PerLayer {
		entry, ok := lm[m.Name]
		if !ok {
			t.Errorf("per-layer metric %s has no layermap.json entry", m.Name)
			continue
		}
		for _, e := range entry.Moves {
			if !listed[e] {
				t.Errorf("%s moves %q, not a metric of BENCHMARK.json", m.Name, e)
			}
		}
		for _, w := range append(entry.On, entry.NotOn...) {
			if _, ok := workloads[w]; !ok {
				t.Errorf("%s names workload %q, which does not exist", m.Name, w)
			}
		}
		if entry.Why == "" {
			t.Errorf("%s: empty why", m.Name)
		}
	}
	if len(lm) != len(spec.PerLayer) {
		t.Errorf("layermap.json has %d entries, BENCHMARK.json %d per-layer metrics", len(lm), len(spec.PerLayer))
	}
}
