// Command bench is the repository's benchmark: four Tonic workloads,
// eight end-to-end metrics each, and a traced pass that attributes
// every query's time to the layers it crossed. See README.md.
//
//	go run ./bench                      every workload, timed pass
//	go run ./bench -trace 1             every workload, traced pass + boundary ladder
//	go run ./bench -selfcheck           timed set twice, gaps and flags against BENCHMARK.json bounds
//	go run ./bench -workload W -seed N -seconds S -trace 0|1   one run (what the driver calls)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 25

type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outLine is the one JSON object a run prints last.
type outLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

func main() {
	var (
		name      = flag.String("workload", "", "run one workload in this process (default: all, one child process each)")
		seed      = flag.Uint64("seed", 1, "input-population seed")
		seconds   = flag.Float64("seconds", defaultSeconds, "measured seconds per run")
		traced    = flag.Int("trace", 0, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run the timed set twice and hold the gaps against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		os.Exit(2)
	}
	var err error
	switch {
	case *name != "":
		err = runOne(*name, *seed, *seconds, *traced == 1)
	case *selfcheck:
		err = runSelfcheck(*seed, *seconds)
	default:
		_, err = runAll(*seed, *seconds, *traced == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// runOne runs one workload's pass in this process and prints the
// report followed by the result line.
func runOne(name string, seed uint64, seconds float64, traced bool) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	// Go 1.24 sizes GOMAXPROCS from the host's cores, not the
	// container's quota; the benchmark fixes it.
	runtime.GOMAXPROCS(w.procs)
	printEnv(os.Stdout, seed)
	var (
		res *result
		err error
	)
	if traced {
		res, err = runTraced(os.Stdout, w, seed, seconds)
	} else {
		res, err = runTimed(os.Stdout, w, seed, seconds)
	}
	if err != nil {
		return err
	}
	line := outLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]outMetric{}}
	for name, v := range res.metrics {
		line.Metrics[name] = outMetric{Value: v, Unit: res.units[name]}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", data)
	return nil
}

// childRun is what the parent keeps of one child process: the result
// line and the report lines that void it (see flagMark).
type childRun struct {
	outLine
	flags []string
}

// runChild re-executes this binary for one workload and pass, so
// set-up time, CPU, allocations and peak RSS belong to that workload
// alone. The child's report is passed through; its result line is
// parsed and returned.
func runChild(w *workloadDef, seed uint64, seconds float64, traced bool) (childRun, error) {
	var line childRun
	exe, err := os.Executable()
	if err != nil {
		return line, err
	}
	traceArg := "0"
	if traced {
		traceArg = "1"
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceArg)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(stdout.Bytes())
		return line, fmt.Errorf("%s: %w", w.name, err)
	}
	report, last := "", strings.TrimRight(stdout.String(), "\n")
	if cut := strings.LastIndexByte(last, '\n'); cut >= 0 {
		report, last = last[:cut], last[cut+1:]
		fmt.Println(report)
	}
	if err := json.Unmarshal([]byte(last), &line.outLine); err != nil {
		return line, fmt.Errorf("%s: result line: %w", w.name, err)
	}
	for _, l := range strings.Split(report, "\n") {
		if strings.Contains(l, flagMark) {
			line.flags = append(line.flags, strings.TrimSpace(l))
		}
	}
	return line, nil
}

// runAll runs one pass of every workload and prints one table.
func runAll(seed uint64, seconds float64, traced bool) (map[string]childRun, error) {
	lines := map[string]childRun{}
	for _, w := range workloads {
		line, err := runChild(w, seed, seconds, traced)
		if err != nil {
			return nil, err
		}
		lines[w.name] = line
	}
	printTable(os.Stdout, lines)
	for name, line := range lines {
		if !line.Correct {
			return lines, fmt.Errorf("%s: %d of %d queries failed", name, line.Failed, line.Attempted)
		}
	}
	return lines, nil
}

// printTable renders metrics × workloads.
func printTable(out io.Writer, lines map[string]childRun) {
	names := map[string]string{}
	for _, line := range lines {
		for m, v := range line.Metrics {
			names[m] = v.Unit
		}
	}
	order := make([]string, 0, len(names))
	for m := range names {
		order = append(order, m)
	}
	sort.Strings(order)
	fmt.Fprintf(out, "\n%-34s %-8s", "metric", "unit")
	for _, w := range workloads {
		fmt.Fprintf(out, " %20s", w.name)
	}
	fmt.Fprintln(out)
	row := func(label, unit string, cell func(childRun) string) {
		fmt.Fprintf(out, "%-34s %-8s", label, unit)
		for _, w := range workloads {
			fmt.Fprintf(out, " %20s", cell(lines[w.name]))
		}
		fmt.Fprintln(out)
	}
	row("sent", "count", func(l childRun) string { return strconv.Itoa(l.Attempted) })
	row("failed", "count", func(l childRun) string { return strconv.Itoa(l.Failed) })
	row("flags", "count", func(l childRun) string { return strconv.Itoa(len(l.flags)) })
	for _, m := range order {
		row(m, names[m], func(l childRun) string { return strconv.FormatFloat(l.Metrics[m].Value, 'g', 6, 64) })
	}
}

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// relativeGap is how far two readings of one metric lie apart, as a
// share of the better one: the same whichever run came first.
func relativeGap(a, b float64) float64 {
	lo, hi := math.Abs(a), math.Abs(b)
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo == 0 {
		if hi == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (hi - lo) / lo
}

// runSelfcheck runs the timed set twice and fails when the two sets
// disagree on any end-to-end metric of any workload by more than its
// bound, or when either set's report carries a flag (noisy host, too
// few samples beyond p95, a late generator): the benchmark checking
// its own steadiness.
func runSelfcheck(seed uint64, seconds float64) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck runs from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return err
	}
	first, err := runAll(seed, seconds, false)
	if err != nil {
		return err
	}
	second, err := runAll(seed, seconds, false)
	if err != nil {
		return err
	}
	fmt.Printf("\n%-22s %-18s %12s %12s %7s %6s\n", "workload", "metric", "first", "second", "gap", "bound")
	breaches := 0
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			a, b := first[w.name].Metrics[m.Name].Value, second[w.name].Metrics[m.Name].Value
			gap := relativeGap(a, b)
			verdict := ""
			if gap > m.Bound {
				verdict = "  BREACH"
				breaches++
			}
			fmt.Printf("%-22s %-18s %12.6g %12.6g %6.1f%% %5.0f%%%s\n", w.name, m.Name, a, b, gap*100, m.Bound*100, verdict)
		}
		for i, set := range []map[string]childRun{first, second} {
			for _, f := range set[w.name].flags {
				fmt.Printf("%-22s set %d: %s  BREACH\n", w.name, i+1, f)
				breaches++
			}
		}
	}
	if breaches > 0 {
		return fmt.Errorf("selfcheck: %d breach(es): two runs of the same code must agree within every bound, with no flagged run", breaches)
	}
	return nil
}
