package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain doubles as the child process of the rusage tests: with
// PERFBENCH_CHILD set it burns CPU and touches memory, then exits.
func TestMain(m *testing.M) {
	switch os.Getenv("PERFBENCH_CHILD") {
	case "burn":
		mem := make([]byte, 64<<20)
		for i := range mem {
			mem[i] = byte(i)
		}
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		}
		os.Stdout.Write(mem[:3])
		os.Exit(0)
	case "fail":
		os.Stderr.WriteString("child failed on purpose\n")
		os.Exit(3)
	}
	os.Exit(m.Run())
}

func TestRunProcExtractsRusage(t *testing.T) {
	t.Setenv("PERFBENCH_CHILD", "burn")
	out, st, err := runProc(".", os.Args[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Errorf("stdout = %q, want the child's 3 bytes", out)
	}
	if st.CPU < 250*time.Millisecond {
		t.Errorf("child CPU %v, want at least the 300ms it spun", st.CPU)
	}
	if st.MaxRSS < 64<<20 {
		t.Errorf("child peak RSS %d bytes, want at least the 64 MiB it touched", st.MaxRSS)
	}
	if st.Wall < st.CPU/2 {
		t.Errorf("wall %v implausibly below CPU %v", st.Wall, st.CPU)
	}
}

func TestRunProcReportsFailure(t *testing.T) {
	t.Setenv("PERFBENCH_CHILD", "fail")
	_, st, err := runProc(".", os.Args[0])
	if err == nil || !strings.Contains(err.Error(), "child failed on purpose") {
		t.Fatalf("err = %v, want the non-zero exit with the child's stderr", err)
	}
	if st.Wall <= 0 {
		t.Errorf("a failed child still has a wall clock, got %v", st.Wall)
	}
}
