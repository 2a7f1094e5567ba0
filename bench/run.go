package main

import (
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"time"

	"djinn/internal/gateway"
	"djinn/internal/models"
	"djinn/internal/service"
	"djinn/internal/tensor"
)

// metricDef names one reported number. The lists below are the
// benchmark's contract; BENCHMARK.json repeats them (a unit test holds
// the two together).
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"throughput_qps", "1/s"},
	{"slo_goodput_qps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"cpu_ms_per_query", "ms"},
	{"allocs_per_query", "count"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// setupReps is how many times a timed run sets the stack up; setup_s
// reports the median.
const setupReps = 3

// window is one measured stretch of load with the readings taken at
// its edges.
type window struct {
	seconds float64
	samples []sample
	use     [2]usage
	svc     [2]service.Stats
	gw      [2]gateway.Stats
	sent    [2]int64 // router exchanges started
	routed  [2]int64 // router exchanges answered
}

func (l *live) snapshot(w *workloadDef, win *window, i int) {
	win.svc[i] = l.st.serviceStats(w.apps)
	if l.st.gw != nil {
		win.gw[i] = l.st.gw.Stats()
	}
	win.sent[i], win.routed[i] = l.st.routerAttempts()
	win.use[i] = readUsage()
}

// measure drives the workload's load for the window.
func measure(w *workloadDef, l *live, pop *population, seconds float64, tag string) *window {
	win := &window{seconds: seconds}
	d := time.Duration(seconds * float64(time.Second))
	l.snapshot(w, win, 0)
	if w.open {
		win.samples = runOpen(l.clients, pop.schedule, d)
	} else {
		win.samples = runClosed(l.clients, pop.cycles, d, tag)
	}
	l.snapshot(w, win, 1)
	return win
}

// phase is one row of sent / ok / failed.
type phase struct {
	name                string
	rate                float64 // open loop: the step's scheduled rate
	scheduled           int
	sent, ok            int
	errs, wrong, inTime int
	lagP99              float64
	lagP50, lagMax      float64
	n                   int     // correct replies
	p50, p95, p99       float64 // their latencies, ms
}

func (p phase) failed() int { return p.errs + p.wrong }

// attainment is the share of the phase's scheduled queries answered
// correctly inside the limit; unsent and failed ones miss it.
func (p phase) attainment() float64 {
	if p.scheduled == 0 {
		return 0
	}
	return float64(p.inTime) / float64(p.scheduled)
}

// summary is a window reduced to the end-to-end numbers.
type summary struct {
	phases     []phase
	sent, ok   int
	failed     int
	throughput float64
	goodput    float64
	p50, p95   float64
	p99        float64
	n          int // latency samples behind p50/p95
	cpuMs      float64
	allocs     float64
}

// latencyStep is the open-loop step whose replies the latency
// percentiles are taken over: r1. At r2 the two connections are half
// busy, and queueing for them turns a host that runs 15 % slower into a
// p95 that is 70 % higher, so ten runs of one commit spread by 0.2-0.4;
// at r1 a query mostly meets an idle connection and the spread halves.
// What r2 does to the tail shows in slo_goodput_qps and attainment_r2.
const latencyStep = 0

// summarize reduces a window. Closed loops: one phase, throughput from
// the window's start to its last reply, percentiles over every correct
// reply. Open loop: one phase per rate step, throughput from the replies
// that arrived during r3, percentiles at r1, goodput over all three.
func summarize(w *workloadDef, pop *population, win *window) summary {
	var sum summary
	if !w.open {
		sum.phases = []phase{{name: "run"}}
	} else {
		for i, r := range w.rates {
			sum.phases = append(sum.phases, phase{name: fmt.Sprintf("r%d", i+1), rate: r})
		}
		for _, a := range pop.schedule {
			sum.phases[a.step].scheduled++
		}
	}
	lags, lats := make([][]float64, len(sum.phases)), make([][]float64, len(sum.phases))
	var inTime, r3Replies int
	var last time.Duration // the last correct reply of the window
	for _, s := range win.samples {
		p := &sum.phases[s.step]
		p.sent++
		switch {
		case s.err:
			p.errs++
		case s.wrong:
			p.wrong++
		default:
			p.ok++
			lats[s.step] = append(lats[s.step], ms(s.latency()))
			if s.done > last {
				last = s.done
			}
			if s.latency() <= w.limit {
				p.inTime++
				inTime++
			}
			if w.open && s.done >= 2*pop.stepLen && s.done < 3*pop.stepLen {
				r3Replies++
			}
		}
		lags[s.step] = append(lags[s.step], ms(s.lag()))
	}
	for i := range sum.phases {
		p := &sum.phases[i]
		if !w.open {
			p.scheduled = p.sent
		}
		sort.Float64s(lags[i])
		p.lagP99 = percentile(lags[i], 0.99)
		p.lagP50, p.lagMax = percentile(lags[i], 0.5), percentile(lags[i], 1)
		sort.Float64s(lats[i])
		p.n, p.p50, p.p95, p.p99 = len(lats[i]), percentile(lats[i], 0.50), percentile(lats[i], 0.95), percentile(lats[i], 0.99)
		sum.sent += p.sent
		sum.ok += p.ok
		sum.failed += p.failed()
	}
	if w.open {
		sum.throughput = float64(r3Replies) / pop.stepLen.Seconds()
		sum.goodput = float64(inTime) / win.seconds
	} else if last > 0 {
		// A closed loop's window ends between two replies; the rate is
		// taken up to the last one, so it does not step by whole replies.
		sum.throughput = float64(sum.ok) / last.Seconds()
		sum.goodput = float64(inTime) / last.Seconds()
	}
	// A closed loop's one phase is phase 0 too.
	lp := sum.phases[latencyStep]
	sum.n, sum.p50, sum.p95, sum.p99 = lp.n, lp.p50, lp.p95, lp.p99
	sum.cpuMs, sum.allocs = perQuery(win.use[0], win.use[1], sum.ok)
	return sum
}

// maxRateAtSLO is the highest offered rate whose phase kept at least
// 95 % of its scheduled queries inside the limit; a closed loop offers
// exactly what it completes.
func maxRateAtSLO(w *workloadDef, sum summary) float64 {
	var best float64
	for _, p := range sum.phases {
		rate := p.rate
		if !w.open {
			rate = sum.throughput
		}
		if p.attainment() >= 0.95 && rate > best {
			best = rate
		}
	}
	return best
}

// flagMark starts every report line that voids a run's numbers: a noisy
// host, too few samples beyond p95, a late generator. -selfcheck counts
// them as breaches.
const flagMark = "FLAG "

// maxLagMs is how late the generator's p99 may run below capacity.
const maxLagMs = 1.0

func printSummary(out io.Writer, w *workloadDef, label string, sum summary) {
	fmt.Fprintf(out, "%s %s: limit %.0f ms, %d clients\n", w.name, label, ms(w.limit), clientCount)
	for _, p := range sum.phases {
		fmt.Fprintf(out, "  phase %-3s sent=%d ok=%d failed=%d (errors=%d wrong=%d)", p.name, p.sent, p.ok, p.failed(), p.errs, p.wrong)
		if w.open {
			fmt.Fprintf(out, " rate=%.0f/s scheduled=%d attainment=%.3f p50=%.3f p95=%.3f lag_p50=%.3f lag_p99=%.3f lag_max=%.3f ms", p.rate, p.scheduled, p.attainment(), p.p50, p.p95, p.lagP50, p.lagP99, p.lagMax)
		}
		fmt.Fprintln(out)
		// Above capacity (r3) no connection is free before a query is
		// due, so the generator has nothing to be late for.
		if p.lagP99 > maxLagMs && p.name != "r3" {
			fmt.Fprintf(out, "  %sLAG>%.0fms at %s: the generator ran late, the open-loop numbers are invalid\n", flagMark, maxLagMs, p.name)
		}
	}
	fmt.Fprintf(out, "  latency samples=%d, %d beyond p95\n", sum.n, beyond(sum.n, 0.95))
}

// result is what one run of one workload reports.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	units             map[string]string
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, units: map[string]string{}}
}

func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.name == name {
			r.metrics[name], r.units[name] = v, d.unit
			return
		}
	}
	panic("bench: metric " + name + " is not declared")
}

// buildModels builds every network the workload serves (BuildCached
// keeps them for the stack, the reference and the ladder) and returns
// how long that took: the part of set-up that happens once a process.
func buildModels(apps []models.App) time.Duration {
	t0 := time.Now()
	for _, a := range apps {
		models.BuildCached(a)
	}
	return time.Since(t0)
}

// prepare generates the population from the seed and fills in the
// oracle. The model build is timed; the benchmark's own work is not.
func prepare(w *workloadDef, seed uint64, seconds float64) (*population, time.Duration, error) {
	pop := w.populate(tensor.NewRNG(seed), seconds, w.rates)
	build := buildModels(w.apps)
	if err := fillOracle(w.apps, pop.distinct); err != nil {
		return nil, 0, err
	}
	// The oracle's references are garbage now. Collect it and hand the
	// pages back here, or the program under test spends the first
	// seconds of its window sharing a heap with the collector and the
	// scavenger working through the benchmark's leftovers.
	debug.FreeOSMemory()
	return pop, build, nil
}

// runTimed is the untraced pass: every end-to-end metric of one
// workload, measured for the given seconds.
func runTimed(out io.Writer, w *workloadDef, seed uint64, seconds float64) (*result, error) {
	pop, build, err := prepare(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	before := canary()
	// The first set-up serves the measured window, so the high-water
	// mark read after it is that of one stack; the repeats that steady
	// setup_s come afterwards.
	var setups []float64
	var win *window
	var rss float64
	for i := 0; i < setupReps; i++ {
		l, d, err := setUp(w, pop, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i == 0 {
			win = measure(w, l, pop, seconds, "q")
			rss = peakRSSMB()
		}
		l.close()
	}
	after := canary()

	sum := summarize(w, pop, win)
	printSummary(out, w, "timed", sum)
	if beyond(sum.n, 0.95) < minBeyond {
		fmt.Fprintf(out, "  %sINVALID latency_p95_ms: fewer than %d samples beyond it, run longer\n", flagMark, minBeyond)
	}
	if b := win.svc[1].Batches - win.svc[0].Batches; b > 0 {
		fmt.Fprintf(out, "  service: queries=%d batches=%d instances/batch=%.1f shed=%d\n", win.svc[1].Queries-win.svc[0].Queries, b,
			float64(win.svc[1].Instances-win.svc[0].Instances)/float64(b), win.svc[1].Shed()-win.svc[0].Shed())
	}
	if w.transport == "http" {
		c0, c1 := win.gw[0].Cache, win.gw[1].Cache
		fmt.Fprintf(out, "  gateway cache: hits=%d misses=%d fills=%d shared_fills=%d evictions=%d\n",
			c1.Hits-c0.Hits, c1.Misses-c0.Misses, c1.Fills-c0.Fills, c1.Dedup-c0.Dedup, c1.Evictions-c0.Evictions)
	}
	fmt.Fprintf(out, "  set-up: model build %.3f s + median of %d stack set-ups %v s\n", build.Seconds(), setupReps, setups)
	printCanary(out, before, after)

	res := newResult()
	res.attempted, res.failed = sum.sent, sum.failed
	for name, v := range map[string]float64{
		"throughput_qps":   sum.throughput,
		"slo_goodput_qps":  sum.goodput,
		"latency_p50_ms":   sum.p50,
		"latency_p95_ms":   sum.p95,
		"cpu_ms_per_query": sum.cpuMs,
		"allocs_per_query": sum.allocs,
		"peak_rss_mb":      rss,
		"setup_s":          build.Seconds() + median(setups),
	} {
		res.set(endToEndMetrics, name, v)
	}
	return res, nil
}
