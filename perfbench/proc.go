package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// procTimeout bounds one child process; no run of the benchmark's
// inputs comes near it, so hitting it means the program hung.
const procTimeout = 150 * time.Second

// procStats is what the benchmark measures of one finished child
// process: wall clock from start to exit, and the kernel's resource
// usage of that process alone.
type procStats struct {
	Wall   time.Duration
	CPU    time.Duration // user + system
	MaxRSS int64         // bytes
}

// rusageOf extracts CPU time and peak RSS from a finished process.
// Linux reports ru_maxrss in KiB.
func rusageOf(ps *os.ProcessState) (cpu time.Duration, maxRSS int64, err error) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok || ru == nil {
		return 0, 0, fmt.Errorf("no rusage for pid %d", ps.Pid())
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, ru.Maxrss * 1024, nil
}

// runProc runs a command to completion in dir and returns its standard
// output and resource usage. A non-zero exit is an error that carries
// the tail of standard error.
func runProc(dir, name string, args ...string) ([]byte, procStats, error) {
	ctx, cancel := context.WithTimeout(context.Background(), procTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, name, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	st := procStats{Wall: time.Since(start)}
	if cmd.ProcessState != nil {
		cpu, rss, rerr := rusageOf(cmd.ProcessState)
		if err == nil {
			err = rerr
		}
		st.CPU, st.MaxRSS = cpu, rss
	}
	if err != nil {
		return stdout.Bytes(), st, fmt.Errorf("%s %v: %w: %s", name, args, err, tail(stderr.Bytes(), 400))
	}
	return stdout.Bytes(), st, nil
}

// tail returns at most the last n bytes of b, as a string.
func tail(b []byte, n int) string {
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(bytes.TrimSpace(b))
}
