package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procRun is one finished child process.
type procRun struct {
	Stdout []byte
	Wall   time.Duration
	RSSMB  float64 // peak resident set size
}

// runProc runs a binary to completion in dir and reports its wall time and
// peak RSS. A non-zero exit is an error carrying its stderr; the wall time
// and RSS of the failed run are still reported.
func runProc(dir, bin string, args ...string) (procRun, error) {
	cmd := exec.Command(bin, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	pr := procRun{Stdout: stdout.Bytes(), Wall: time.Since(start), RSSMB: peakRSSMB(cmd)}
	if err != nil {
		return pr, fmt.Errorf("%s %v: %w: %s", bin, args, err, bytes.TrimSpace(stderr.Bytes()))
	}
	return pr, nil
}

// procLoop runs op back to back until budget is spent, at least once, and
// reports every attempt in out: an error from op (a failed run or a wrong
// output) counts as a failed operation. A failed attempt spends its share
// of the budget like any other, so a program that always fails ends the
// loop on time with ok_frac 0. It sets the end-to-end metrics of a
// sequential CLI workload; op_ms is the median wall of every attempt.
func procLoop(out *outcome, budget time.Duration, op func() (procRun, error)) {
	var walls []float64
	var peak float64
	start := time.Now()
	for len(walls) == 0 || time.Since(start)+medDur(walls) <= budget {
		out.Attempted++
		pr, err := op()
		walls = append(walls, float64(pr.Wall))
		peak = max(peak, pr.RSSMB)
		if err != nil {
			out.fail("%v", err)
		}
	}
	out.Metrics["peak_rss_mb"] = peak
	out.Metrics["ok_frac"] = okFrac(out)
	out.Metrics["op_ms"] = median(walls) / 1e6
	out.Info["op_ms_samples"] = scaled(walls, 1e-6)
	out.Info["bench_peak_rss_mb"] = vmHWMMB(os.Getpid()) // the floor under peak_rss_mb
}

// peakRSSMB reads the peak RSS of an exited child from its rusage
// (kilobytes on Linux). Linux carries the parent's own peak RSS into a
// child it starts, so the figure is at least this process's peak at
// spawn: a few MB for the CLI workloads, where nothing large is held
// while their children run. The server, started while the load
// generator holds its inputs, is measured by vmHWMMB instead.
func peakRSSMB(cmd *exec.Cmd) float64 {
	if cmd.ProcessState == nil {
		return 0
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// vmHWMMB reads the peak RSS of a running process (VmHWM, which starts
// afresh at exec) from /proc; 0 where /proc does not report it.
func vmHWMMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
