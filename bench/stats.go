package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of an
// ascending sample: the value at rank ceil(p·n). Zero for no samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), p)-1]
}

func rankOf(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond is how many of n samples rank above the p-quantile. A
// percentile is reportable only with at least ten (the ten-beyond
// rule); the fix for fewer is a longer run, never a lower percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rankOf(n, p)
}

const minBeyond = 10

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// usage is the process-wide resource reading taken at both edges of a
// measured window.
type usage struct {
	cpu     time.Duration // user + system, getrusage(RUSAGE_SELF)
	mallocs uint64        // runtime.MemStats.Mallocs
}

func readUsage() usage {
	var ru syscall.Rusage
	var u usage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.mallocs = ms.Mallocs
	return u
}

// perQuery divides the window's CPU and allocation deltas by the
// correct replies: the operator's cost per query. No correct reply
// means no defined cost, reported as zero.
func perQuery(before, after usage, ok int) (cpuMs, allocs float64) {
	if ok <= 0 {
		return 0, 0
	}
	cpuMs = float64(after.cpu-before.cpu) / float64(time.Millisecond) / float64(ok)
	allocs = float64(after.mallocs-before.mallocs) / float64(ok)
	return cpuMs, allocs
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
