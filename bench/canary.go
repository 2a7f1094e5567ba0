package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"djinn/internal/tensor"
)

const (
	canaryDim  = 256
	canarySpin = 300 * time.Millisecond
	// canaryTolerance is how far the two canaries may differ before the
	// workload's numbers are marked noisy.
	canaryTolerance = 0.10
)

// canary times a fixed single-core GEMM spin and returns GFLOP/s. It
// runs before and after each workload: when the two disagree the host,
// not the program, changed speed during the run.
func canary() float64 {
	n := canaryDim
	a, b, c := make([]float32, n*n), make([]float32, n*n), make([]float32, n*n)
	rng := tensor.NewRNG(1)
	rng.FillUniform(a, -1, 1)
	rng.FillUniform(b, -1, 1)
	for i := 0; i < 4; i++ { // first-touch the buffers and the kernel's code
		tensor.Gemm(n, n, n, 1, a, b, 0, c)
	}
	start := time.Now()
	reps := 0
	for time.Since(start) < canarySpin {
		tensor.Gemm(n, n, n, 1, a, b, 0, c)
		reps++
	}
	return float64(reps) * 2 * float64(n*n*n) / time.Since(start).Seconds() / 1e9
}

func noisy(before, after float64) bool {
	return math.Abs(before-after) > canaryTolerance*math.Max(before, after)
}

func printCanary(out io.Writer, before, after float64) {
	fmt.Fprintf(out, "  host canary: %.2f → %.2f GFLOP/s", before, after)
	if noisy(before, after) {
		fmt.Fprintf(out, "  %sNOISY: differ by more than %.0f %%, do not read this run as a regression", flagMark, canaryTolerance*100)
	}
	fmt.Fprintln(out)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func printEnv(out io.Writer, seed uint64) {
	fmt.Fprintf(out, "env: %s GOMAXPROCS=%d NumCPU=%d cpu=%q clients=%d seed=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), clientCount, seed)
}
