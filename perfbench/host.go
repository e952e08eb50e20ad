package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// hostInfo is the host and configuration block printed with every
// result. A figure is only comparable with another taken at the same
// nproc and GOMAXPROCS: vmsim's pipelined execute/timing mode only
// engages when GOMAXPROCS > 1.
type hostInfo struct {
	NumCPU          int      `json:"nproc"`
	GOMAXPROCS      int      `json:"gomaxprocs"`
	PipelineEngaged bool     `json:"pipeline_engaged"`
	GoVersion       string   `json:"go"`
	Commit          string   `json:"commit"`
	SourceSHA256    string   `json:"source_sha256"`
	VmsimArgv       []string `json:"vmsim_argv"`
	HostModeFlags   []string `json:"host_mode_flags"`
}

// inputFlags are the vmsim flags the benchmark passes: inputs (-exp,
// -scale, -apps, -app) and deployment settings (-store, -http). Any
// other flag would select a non-default host mode.
var inputFlags = map[string]bool{"-exp": true, "-scale": true, "-apps": true, "-app": true, "-store": true, "-http": true}

// hostModeFlags lists the flags of a vmsim argv that are not input or
// deployment flags; the benchmark requires it to be empty.
func hostModeFlags(argv []string) []string {
	out := []string{}
	for i := 1; i < len(argv); i++ {
		a := argv[i]
		if !strings.HasPrefix(a, "-") {
			continue
		}
		name, _, _ := strings.Cut(a, "=")
		if inputFlags[name] {
			i++ // skip the flag's value
			continue
		}
		out = append(out, a)
	}
	return out
}

func collectHost(root string, argv []string) hostInfo {
	h := hostInfo{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.NumCPU(),
		GoVersion:     runtime.Version(),
		Commit:        "unknown (not a git checkout)",
		SourceSHA256:  sourceDigest(root),
		VmsimArgv:     argv,
		HostModeFlags: hostModeFlags(argv),
	}
	// vmsim inherits the environment, so its GOMAXPROCS is the
	// variable's value when set and the CPU count otherwise.
	if v, err := strconv.Atoi(os.Getenv("GOMAXPROCS")); err == nil && v > 0 {
		h.GOMAXPROCS = v
	}
	h.PipelineEngaged = h.GOMAXPROCS > 1
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// sourceDigest hashes the simulator's Go sources and go.mod (the
// benchmark's own directory and build outputs excluded), so results
// from a checkout that is not a git repository still name the code
// they measured.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		if d.IsDir() {
			if rel == "perfbench" || strings.HasPrefix(rel, ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") || rel == "go.mod" {
			files = append(files, rel)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			continue
		}
		sum := sha256.Sum256(b)
		h.Write([]byte(f + " " + hex.EncodeToString(sum[:]) + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}
