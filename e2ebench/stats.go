package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// nearestRank returns the nearest-rank p-quantile (0 < p <= 1) of
// sorted: the smallest sample with at least a share p of all samples at
// or below it. It never interpolates, so the result is always a sample
// and never exceeds the maximum. An empty slice yields 0.
func nearestRank(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// dist summarizes raw samples (nanoseconds) by exact percentiles.
type dist struct {
	N   int   `json:"n"`
	P50 int64 `json:"p50"`
	P99 int64 `json:"p99"`
	Max int64 `json:"max"`
}

func summarize(samples []int64) dist {
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	d := dist{N: len(s)}
	if len(s) > 0 {
		d.P50, d.P99, d.Max = nearestRank(s, 0.50), nearestRank(s, 0.99), s[len(s)-1]
	}
	return d
}

func (d dist) String() string {
	return fmt.Sprintf("n=%d p50=%.1fus p99=%.1fus max=%.1fus", d.N, us(d.P50), us(d.P99), us(d.Max))
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

// median is the nearest-rank median of xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
const clockTicks = 100

// procCPU returns the user plus system CPU time pid has used.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat: %q", pid, s)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// procPeakRSS returns pid's peak resident set size in bytes (VmHWM).
func procPeakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb * 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}
