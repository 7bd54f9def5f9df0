package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The hosts this benchmark runs on share their cores: a fixed Go loop
// runs up to twice as fast in one second as in the next, and every
// timing of wafe moves with it. So the timed phase is cut into short
// segments separated by calibration probes, and each segment's times
// are scaled by the machine speed the probes around it measured. The
// probe runs the benchmark's own loop, never wafe code, so a change to
// wafe cannot move it.

const (
	// segmentTime is the length of one measured segment.
	segmentTime = 500 * time.Millisecond
	// probeTime is the length of one calibration probe.
	probeTime = 40 * time.Millisecond
	// refRate is the calibration loop's rate per CPU, in rounds per
	// second, on the reference machine; scaled times are times on it.
	refRate = 20000.0
)

// calRound is one round of the calibration loop: map inserts, string
// formatting and a sort, the kind of work wafe's interpreter does.
func calRound() int {
	m := make(map[string]int, 64)
	var b []byte
	for i := 0; i < 200; i++ {
		b = strconv.AppendInt(b[:0], int64(i*7919%150), 10)
		m[string(b)] += i
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := 0
	for _, k := range keys {
		s += m[k] + len(k)
	}
	return s
}

// probe waits until the wafe process pid (if any) is idle, runs the
// calibration loop on every CPU for probeTime, and returns the machine's
// speed relative to the reference machine. Nothing else of the benchmark
// may run meanwhile.
func probe(pid int) float64 {
	if pid != 0 {
		waitIdle(pid)
	}
	runtime.GC()
	n := runtime.NumCPU()
	rounds := make([]int, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range rounds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < probeTime {
				calRound()
				rounds[i]++
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, r := range rounds {
		total += r
	}
	return float64(total) / time.Since(start).Seconds() / float64(n) / refRate
}

// waitIdle waits, for at most 100ms, until pid's threads stop running,
// so that wafe's own background work, such as its garbage collector,
// does not slow the probe down.
func waitIdle(pid int) {
	prev := cpuNanos(pid)
	for deadline := time.Now().Add(100 * time.Millisecond); time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
		cur := cpuNanos(pid)
		if cur-prev < int64(100*time.Microsecond) {
			return
		}
		prev = cur
	}
}

// cpuNanos sums the CPU time of pid's threads from their schedstat.
func cpuNanos(pid int) int64 {
	tasks, _ := filepath.Glob("/proc/" + strconv.Itoa(pid) + "/task/*/schedstat")
	var sum int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue
		}
		f := strings.Fields(string(b))
		if len(f) > 0 {
			n, _ := strconv.ParseInt(f[0], 10, 64)
			sum += n
		}
	}
	return sum
}
