// Command benchab automates the paired A/B procedure bench/README.md
// describes by hand ("Reading a change with it"): the repository's
// benchmark on a reference commit against the working tree, in
// alternating pairs, judged per workload and metric by the rule the
// benchmark's contract uses.
//
//	make benchab REF=HEAD^                      every workload, ten pairs each
//	make benchab REF=6b04585 W=nlp_djrt_closed  one workload
//
// REF's committed files are exported (git archive) into a temporary
// directory, as the driver does, so the working tree — uncommitted
// changes included — is untouched. Each side is built by one
// `bash bench/run.sh -h` in its own tree; every run then goes through
// BENCHMARK.json's command exactly as the driver makes it, for
// BENCHMARK.json's run_seconds. Pair i uses seed seed0 + i on both sides
// and alternates which side runs first; a pair in which either side's
// report carries `NOISY` (the host canary moved across the run) is
// rerun, at most twice.
//
// Per metric it prints each side's median and quartiles, how many pairs
// the working tree won, and a verdict:
//
//	claimable     the tree wins at least nine tenths of the pairs run (a tie
//	              is a win for neither side) and the medians differ by more
//	              than the reference's own quartile spread
//	REGRESSED     the tree's median is worse than the reference's by more than
//	              the metric's bound
//	unresolved    neither, and one side's quartile spread is wider than the
//	              bound: the runs cannot tell
//	within bound  neither, and they can
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// contract is what benchab reads of BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	RunSeconds float64  `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`
}

// run is one benchmark run: the result line plus whether the report
// said the host was noisy.
type run struct {
	Failed  int `json:"failed"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	noisy bool
}

const (
	pairs = 10  // per workload
	seed0 = 101 // seed of the first pair; pair i uses seed0+i
)

func main() {
	var (
		ref      = flag.String("ref", "HEAD^", "commit the working tree is compared against")
		workload = flag.String("workload", "", "one workload (default: every workload in BENCHMARK.json)")
	)
	flag.Parse()
	if err := benchab(*ref, *workload); err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(1)
	}
}

func benchab(ref, only string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var workloads []string
	for _, w := range c.Workloads {
		if only == "" || only == w.Name {
			workloads = append(workloads, w.Name)
		}
	}
	if len(workloads) == 0 || len(c.Command) == 0 {
		return fmt.Errorf("no workload %q in BENCHMARK.json, or nothing to run", only)
	}

	tree, err := os.Getwd()
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "benchab")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	refDir := filepath.Join(tmp, "ref")
	if err := os.Mkdir(refDir, 0o755); err != nil {
		return err
	}
	export := exec.Command("sh", "-c", `git archive "$1" | tar -x -C "$2"`, "sh", ref, refDir)
	if out, err := export.CombinedOutput(); err != nil {
		return fmt.Errorf("exporting %s: %v\n%s", ref, err, out)
	}
	sides := [2]struct{ name, dir string }{{ref, refDir}, {"working tree", tree}}
	for _, s := range sides {
		fmt.Fprintf(os.Stderr, "benchab: building %s ...\n", s.name)
		if _, err := command(c.Command, s.dir, "-h"); err != nil {
			return fmt.Errorf("building %s: %w", s.name, err)
		}
	}

	for _, w := range workloads {
		// results[side][pair]
		var results [2][]run
		for i := 0; i < pairs; i++ {
			seed := uint64(seed0 + i)
			var pair [2]run
			for attempt := 0; ; attempt++ {
				for k := 0; k < 2; k++ {
					side := (i + k) % 2 // alternate which side goes first
					r, err := benchRun(c.Command, sides[side].dir, w, seed, c.RunSeconds)
					if err != nil {
						return fmt.Errorf("%s, %s, seed %d: %w", w, sides[side].name, seed, err)
					}
					pair[side] = r
				}
				if !pair[0].noisy && !pair[1].noisy || attempt == 2 {
					break
				}
				fmt.Fprintf(os.Stderr, "benchab: %s pair %d (seed %d) was NOISY, rerunning\n", w, i+1, seed)
			}
			fmt.Fprintf(os.Stderr, "benchab: %s pair %d/%d done\n", w, i+1, pairs)
			results[0] = append(results[0], pair[0])
			results[1] = append(results[1], pair[1])
		}
		report(w, ref, c.EndToEnd, results)
	}
	return nil
}

// command runs BENCHMARK.json's command with extra arguments in dir
// and returns its standard output.
func command(argv []string, dir string, args ...string) ([]byte, error) {
	cmd := exec.Command(argv[0], append(append([]string(nil), argv[1:]...), args...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%v\n%s%s", err, stdout.Bytes(), stderr.Bytes())
	}
	return stdout.Bytes(), nil
}

// benchRun makes one run the way the driver does and parses its last
// line.
func benchRun(argv []string, dir, workload string, seed uint64, seconds float64) (run, error) {
	var r run
	out, err := command(argv, dir, "--workload", workload, "--seed", strconv.FormatUint(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
	if err != nil {
		return r, err
	}
	text := strings.TrimRight(string(out), "\n")
	if err := json.Unmarshal([]byte(text[strings.LastIndexByte(text, '\n')+1:]), &r); err != nil {
		return r, fmt.Errorf("result line: %w", err)
	}
	r.noisy = strings.Contains(text, "FLAG NOISY")
	return r, nil
}

// report prints one workload's table.
func report(workload, ref string, metrics []metricDef, results [2][]run) {
	n := len(results[0])
	failed, noisy := [2]int{}, 0
	for i := 0; i < n; i++ {
		failed[0] += results[0][i].Failed
		failed[1] += results[1][i].Failed
		if results[0][i].noisy || results[1][i].noisy {
			noisy++
		}
	}
	fmt.Printf("\n%s: %d pairs, %s vs working tree; failed queries %d vs %d; pairs still NOISY after reruns: %d\n",
		workload, n, ref, failed[0], failed[1], noisy)
	fmt.Printf("| metric | %s median [Q1, Q3] | tree median [Q1, Q3] | change | tree wins | verdict |\n|---|---|---|---|---|---|\n", ref)
	for _, m := range metrics {
		var vals [2][]float64
		wins := 0
		for i := 0; i < n; i++ {
			a, b := results[0][i].Metrics[m.Name].Value, results[1][i].Metrics[m.Name].Value
			vals[0], vals[1] = append(vals[0], a), append(vals[1], b)
			if a != b && (b > a) == (m.Better == "higher") {
				wins++
			}
		}
		rq, tq := quartiles(vals[0]), quartiles(vals[1])
		fmt.Printf("| `%s` (%s) | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %+.1f %% | %d/%d | %s |\n",
			m.Name, m.Unit, rq[1], rq[0], rq[2], tq[1], tq[0], tq[2],
			100*(tq[1]-rq[1])/rq[1], wins, n, verdict(m, rq, tq, wins, n))
	}
}

// verdict applies the contract's rule to one metric's quartiles
// (reference, tree) and the tree's wins out of the n pairs run; a tie
// is a win for neither side.
func verdict(m metricDef, rq, tq [3]float64, wins, n int) string {
	gain := tq[1] - rq[1] // positive when the tree is better
	if m.Better == "lower" {
		gain = -gain
	}
	switch {
	case 10*wins >= 9*n && gain > rq[2]-rq[0]:
		return "claimable"
	case -gain > m.Bound*math.Abs(rq[1]):
		return "REGRESSED"
	case rq[2]-rq[0] > m.Bound*math.Abs(rq[1]) || tq[2]-tq[0] > m.Bound*math.Abs(tq[1]):
		return "unresolved"
	}
	return "within bound"
}

// quartiles returns Q1, the median and Q3 by the method Python's
// statistics.quantiles(n=4) defaults to (exclusive), which is what the
// driver judges spreads with.
func quartiles(v []float64) [3]float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q
}
