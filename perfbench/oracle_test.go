package main

import (
	"bytes"
	"testing"
)

const report = `Fig. 2 — startup performance (aggregate IPC normalized to Ref steady state)
cycles                  Ref     VM.soft   VM.interp
1e+03                 0.012       0.000       0.001
1e+04                 0.108       0.004       0.009
[fig2 completed in 1.234s]

Fig. 10 — VM.be cycle breakdown, first 100M-equivalent instructions
Word              4.1      61.3
[fig10 completed in 87ms]

`

// mutate changes one simulated digit, the kind of drift the oracle
// exists to catch.
func mutate(r string) []byte { return bytes.Replace([]byte(r), []byte("0.108"), []byte("0.109"), 1) }

func TestStripReportDropsOnlyWallClockLines(t *testing.T) {
	got := string(stripReport([]byte(report)))
	want := `Fig. 2 — startup performance (aggregate IPC normalized to Ref steady state)
cycles                  Ref     VM.soft   VM.interp
1e+03                 0.012       0.000       0.001
1e+04                 0.108       0.004       0.009

Fig. 10 — VM.be cycle breakdown, first 100M-equivalent instructions
Word              4.1      61.3

`
	if got != want {
		t.Errorf("stripped report:\n%s\nwant:\n%s", got, want)
	}
	other := bytes.Replace([]byte(report), []byte("1.234s"), []byte("2m0.5s"), 1)
	if !sameReport([]byte(report), other) || reportDigest([]byte(report)) != reportDigest(other) {
		t.Error("reports differing only in wall-clock lines compare different")
	}
	if sameReport([]byte(report), mutate(report)) || reportDigest([]byte(report)) == reportDigest(mutate(report)) {
		t.Error("a mutated report compares equal")
	}
}

// TestOracleRejectsMutatedReports feeds the sweep and job checks a
// report with one simulated digit changed and expects a failed
// operation each time.
func TestOracleRejectsMutatedReports(t *testing.T) {
	apps := []string{"Word"}
	spec := jobSpec{Exp: "fig2", Apps: apps, App: "Word", Scale: serveScale}
	b := &bench{
		dig: &digestTable{
			Sweep: map[string]string{sweepKey(sweepScale, apps): reportDigest([]byte(report))},
			Serve: map[string]string{spec.key(): reportDigest([]byte(report))},
		},
		metrics: map[string]metric{},
	}
	var ref []byte
	if !b.checkSweep(&ref, []byte(report), apps, nil, "good sweep") || b.failed != 0 {
		t.Fatal("the recorded report failed the sweep check")
	}
	if b.checkSweep(&ref, mutate(report), apps, nil, "mutated sweep") || b.failed != 1 {
		t.Error("a mutated sweep report passed the check")
	}
	// The digest alone catches a mutation even as the run's first report.
	var fresh []byte
	if b.checkSweep(&fresh, mutate(report), apps, nil, "mutated first sweep") || b.failed != 2 {
		t.Error("a mutated first sweep report passed the digest check")
	}

	b.failed, b.attempted = 0, 0
	if !b.checkJobDigest(0, spec, stripReport([]byte(report))) || b.checkJobDigest(1, spec, stripReport(mutate(report))) {
		t.Error("job digest check: want the recorded report to pass and the mutated one to fail")
	}
	if b.failed != 1 || b.attempted != 2 {
		t.Errorf("job checks: %d of %d failed, want exactly the mutated one", b.failed, b.attempted)
	}
}
