package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
)

// completedLine matches the wall-clock progress lines vmsim prints
// after each experiment. They are the only bytes of a report that may
// differ between runs, so every comparison drops them (docs/api.md,
// byte-identity contract).
var completedLine = regexp.MustCompile(`^\[.* completed in .*\]$`)

// stripReport removes the wall-clock lines from a vmsim report.
func stripReport(b []byte) []byte {
	var out bytes.Buffer
	for _, line := range bytes.SplitAfter(b, []byte("\n")) {
		if completedLine.Match(bytes.TrimSuffix(line, []byte("\n"))) {
			continue
		}
		out.Write(line)
	}
	return out.Bytes()
}

// reportDigest is the SHA-256 of a report with its wall-clock lines
// stripped.
func reportDigest(b []byte) string {
	sum := sha256.Sum256(stripReport(b))
	return hex.EncodeToString(sum[:])
}

// sameReport reports whether two reports agree byte for byte once
// their wall-clock lines are stripped.
func sameReport(a, b []byte) bool { return bytes.Equal(stripReport(a), stripReport(b)) }

//go:embed digests.json
var digestsJSON []byte

// digestTable is the recorded oracle: the stripped-report digest of
// every input the benchmark's seeds can generate, taken from the CLI's
// output, plus the exact simulated instruction counts host_ns_per_instr
// divides by. `perfbench -record` regenerates it; it must only change
// when a commit changes simulated results on purpose.
type digestTable struct {
	// Sweep maps sweepKey(scale, apps) to the digest of
	// `vmsim -exp sweep` on those apps.
	Sweep map[string]string `json:"sweep"`
	// SweepInstrs maps appKey(scale, app) to the simulated x86
	// instructions one sweep retires for that app: every vmm grid cell
	// plus Fig. 3's interpreter profile.
	SweepInstrs map[string]uint64 `json:"sweep_instrs"`
	// Serve maps a serve-mix spec's key to its report digest.
	Serve map[string]string `json:"serve"`
	// ServeInstrs maps appKey(scale, app) to the simulated x86
	// instructions the serve-mix specs of that app run when they share
	// one run cache, as they do in a server: every distinct vmm run
	// once, plus Fig. 3's interpreter profile.
	ServeInstrs map[string]uint64 `json:"serve_instrs"`
}

func sweepKey(scale int, apps []string) string {
	return fmt.Sprintf("scale=%d apps=%s", scale, strings.Join(apps, ","))
}

func appKey(scale int, app string) string { return fmt.Sprintf("scale=%d app=%s", scale, app) }

func loadDigests() (*digestTable, error) {
	t := &digestTable{}
	if err := json.Unmarshal(digestsJSON, t); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return t, nil
}

// sweepInstrs sums the recorded per-app instruction counts of a sweep.
func (t *digestTable) sweepInstrs(scale int, apps []string) (uint64, error) {
	var n uint64
	for _, a := range apps {
		v, ok := t.SweepInstrs[appKey(scale, a)]
		if !ok {
			return 0, fmt.Errorf("digests.json has no instruction count for %s", appKey(scale, a))
		}
		n += v
	}
	return n, nil
}
