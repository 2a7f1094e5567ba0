package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"djinn/internal/models"
	"djinn/internal/tensor"
)

// The benchmark's own arithmetic, checked on fixed inputs and fake
// clocks: nothing here sleeps or reads the wall clock.

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 200)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 100}, {0.95, 190}, {0.99, 198}, {1, 200}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestTenBeyondRule(t *testing.T) {
	for _, c := range []struct {
		n, want int
	}{{0, 0}, {100, 5}, {199, 9}, {200, 10}, {220, 11}} {
		if got := beyond(c.n, 0.95); got != c.want {
			t.Errorf("beyond(%d, 0.95) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestPerQueryDividesDeltasByCorrectReplies(t *testing.T) {
	before := usage{cpu: 2 * time.Second, mallocs: 1000}
	after := usage{cpu: 5 * time.Second, mallocs: 61000}
	cpu, allocs := perQuery(before, after, 600)
	if !near(cpu, 5) || !near(allocs, 100) {
		t.Errorf("perQuery = %v ms, %v allocs; want 5 ms, 100 allocs", cpu, allocs)
	}
	if cpu, allocs := perQuery(before, after, 0); cpu != 0 || allocs != 0 {
		t.Errorf("no correct reply must cost 0, 0; got %v, %v", cpu, allocs)
	}
}

// fakeClock wakes a scripted amount late from each wait.
type fakeClock struct {
	now  time.Duration
	late []time.Duration
}

func (c *fakeClock) since() time.Duration { return c.now }
func (c *fakeClock) waitUntil(t time.Duration) {
	c.now = t
	if len(c.late) > 0 {
		c.now += c.late[0]
		c.late = c.late[1:]
	}
}

func TestDrainStampsReadyAndLagAndStopsAtTheWindow(t *testing.T) {
	msec := time.Millisecond
	schedule := []arrival{{due: 10 * msec}, {due: 11 * msec}, {due: 30 * msec}, {due: 99 * msec}, {due: 120 * msec}}
	clk := &fakeClock{late: []time.Duration{3 * msec, 0, 2 * msec}}
	var got []sample
	// One connection; every query takes 5 ms to answer.
	h := &head{schedule: schedule}
	h.drain(clk, 100*msec, func(a arrival, ready, released time.Duration) {
		clk.now += 5 * msec
		got = append(got, sample{due: a.due, ready: ready, released: released, done: clk.now})
	})
	// The first wait wakes 3 ms late: that is the generator's lag. The
	// second query was due at 11 ms but the connection is busy until
	// 18 ms: it goes at once, no lag, and its 7 ms in the queue count as
	// latency. The third is on time. The fourth is due inside the window
	// but the wait for it ends after the window closed: never sent.
	want := []struct{ ready, released, lag, latency time.Duration }{
		{10 * msec, 13 * msec, 3 * msec, 8 * msec},
		{18 * msec, 18 * msec, 0, 12 * msec},
		{30 * msec, 30 * msec, 0, 5 * msec},
	}
	if len(got) != len(want) {
		t.Fatalf("sent %d arrivals, want %d", len(got), len(want))
	}
	for i, s := range got {
		w := want[i]
		if s.ready != w.ready || s.released != w.released || s.lag() != w.lag || s.latency() != w.latency {
			t.Errorf("arrival %d: ready %v released %v lag %v latency %v, want %v %v %v %v",
				i, s.ready, s.released, s.lag(), s.latency(), w.ready, w.released, w.lag, w.latency)
		}
	}
}

func TestBuildScheduleIsSeededAndOrdered(t *testing.T) {
	rates := []float64{100, 200, 500}
	stepLen := 2 * time.Second
	q := &query{}
	build := func(seed uint64) []arrival {
		return buildSchedule(tensor.NewRNG(seed), rates, stepLen, func(int) *query { return q })
	}
	a, b := build(7), build(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, build(8)) {
		t.Fatal("two seeds gave one schedule")
	}
	perStep := make([]int, len(rates))
	for i, arr := range a {
		if i > 0 && arr.due < a[i-1].due {
			t.Fatalf("arrival %d is due before its predecessor", i)
		}
		if lo := time.Duration(arr.step) * stepLen; arr.due < lo || arr.due >= lo+stepLen {
			t.Fatalf("arrival %d of step %d is due at %v", i, arr.step, arr.due)
		}
		perStep[arr.step]++
	}
	for i, r := range rates {
		want := r * stepLen.Seconds()
		if d := math.Abs(float64(perStep[i]) - want); d > 5*math.Sqrt(want) {
			t.Errorf("step %d has %d arrivals, want about %.0f", i, perStep[i], want)
		}
	}
}

func TestNLPOpenSendsBothAppsFromTheHotSetAndAsUniqueQueries(t *testing.T) {
	p := populateNLPOpen(tensor.NewRNG(1), 3, [3]float64{100, 200, 400})
	hot := map[*query]bool{}
	for _, q := range p.distinct[:hotSentences] {
		hot[q] = true
	}
	count := map[bool]map[string]int{true: {}, false: {}}
	for _, a := range p.schedule {
		count[hot[a.q]][a.q.kind]++
	}
	for isHot, byKind := range count {
		pos, ner := byKind[kindPOS], byKind[kindNER]
		if total := pos + ner; pos < total/3 || ner < total/3 {
			t.Errorf("hot=%v arrivals: %d POS, %d NER, want about half each", isHot, pos, ner)
		}
	}
}

func TestSummarizeOpenLoop(t *testing.T) {
	msec := time.Millisecond
	w := &workloadDef{open: true, limit: 10 * msec, rates: [3]float64{10, 20, 50}}
	pop := &population{stepLen: 2 * time.Second}
	// Scheduled: 4 in r1, 4 in r2, 6 in r3 (two never sent).
	for step, n := range []int{4, 4, 6} {
		for i := 0; i < n; i++ {
			pop.schedule = append(pop.schedule, arrival{step: step})
		}
	}
	at := func(step int, due, lat time.Duration) sample {
		d := time.Duration(step)*pop.stepLen + due
		return sample{step: step, due: d, ready: d, released: d, done: d + lat}
	}
	win := &window{seconds: 6, samples: []sample{
		at(0, 100*msec, 5*msec), at(0, 200*msec, 4*msec), at(0, 300*msec, 6*msec), at(0, 400*msec, 50*msec),
		at(1, 100*msec, 4*msec), at(1, 200*msec, 6*msec), at(1, 300*msec, 8*msec), at(1, 400*msec, 7*msec),
		at(2, 100*msec, 5*msec), at(2, 600*msec, 5*msec), at(2, 1100*msec, 5*msec), at(2, 1600*msec, 5*msec),
	}}
	win.samples[1].wrong = true // a reply the oracle rejects
	win.samples[5].err = true   // a query that got no reply
	sum := summarize(w, pop, win)
	if sum.sent != 12 || sum.ok != 10 || sum.failed != 2 {
		t.Errorf("sent %d ok %d failed %d, want 12, 10, 2", sum.sent, sum.ok, sum.failed)
	}
	// r1: 2 correct and in time of 4 scheduled; r3: 4 of 6.
	for i, want := range []float64{0.5, 0.75, 4.0 / 6} {
		if got := sum.phases[i].attainment(); !near(got, want) {
			t.Errorf("attainment r%d = %v, want %v", i+1, got, want)
		}
	}
	// Goodput: 9 correct replies inside the limit over 6 s.
	if !near(sum.goodput, 9.0/6) {
		t.Errorf("goodput = %v, want 1.5", sum.goodput)
	}
	// Four replies arrived during r3's two seconds.
	if !near(sum.throughput, 2) {
		t.Errorf("throughput = %v, want 2", sum.throughput)
	}
	// Percentiles at r1, correct replies only: 5, 6, 50 ms.
	if !near(sum.p50, 6) || sum.n != 3 {
		t.Errorf("p50 = %v over %d samples, want 6 over 3", sum.p50, sum.n)
	}
	// Highest rate that kept 95 % inside the limit: none of the three.
	if got := maxRateAtSLO(w, sum); got != 0 {
		t.Errorf("maxRateAtSLO = %v, want 0", got)
	}
	sum.phases[0].inTime, sum.phases[1].inTime = 4, 4
	if got := maxRateAtSLO(w, sum); got != 20 {
		t.Errorf("maxRateAtSLO = %v, want r2's 20", got)
	}
}

func TestSummarizeClosedLoop(t *testing.T) {
	sec := time.Second
	w := &workloadDef{limit: 1500 * time.Millisecond}
	at := func(sent, done time.Duration) sample {
		return sample{due: sent, ready: sent, released: sent, done: done}
	}
	win := &window{seconds: 5, samples: []sample{
		at(0, 1*sec), at(0, 2*sec), at(1*sec, 3*sec), at(2*sec, 4*sec),
	}}
	win.samples[2].wrong = true
	sum := summarize(w, &population{}, win)
	if sum.sent != 4 || sum.ok != 3 || sum.failed != 1 {
		t.Errorf("sent %d ok %d failed %d, want 4, 3, 1", sum.sent, sum.ok, sum.failed)
	}
	// Three correct replies by the fourth second, one inside the limit.
	if !near(sum.throughput, 0.75) || !near(sum.goodput, 0.25) {
		t.Errorf("throughput %v goodput %v, want 0.75 and 0.25", sum.throughput, sum.goodput)
	}
	if !near(sum.p50, 2000) || sum.n != 3 {
		t.Errorf("p50 = %v ms over %d samples, want 2000 over 3", sum.p50, sum.n)
	}
}

// pipelineSpans is one /v1/pipeline query, asr → pos ∥ ner, in
// microseconds: NER outlasts POS, so POS is off the blocking path.
func pipelineSpans() []span {
	us := func(name, app string, start, end time.Duration) span {
		return span{Trace: "q", Name: name, App: app, Start: start * time.Microsecond, End: end * time.Microsecond, Parent: -1}
	}
	return []span{
		us(spanHTTP, "", 0, 1000),         // 0
		us(spanGateway, "", 100, 900),     // 1
		us(spanPipeline, "", 150, 850),    // 2
		us(spanStage, "asr", 150, 550),    // 3
		us(spanStage, "pos", 550, 700),    // 4
		us(spanStage, "ner", 560, 850),    // 5
		us(spanRouter, "asr", 200, 500),   // 6
		us(spanRouter, "pos", 570, 690),   // 7
		us(spanRouter, "ner", 580, 830),   // 8
		us(spanRoute, "ner", 580, 830),    // 9
		us(spanAttempt, "ner", 585, 825),  // 10
		us(spanQueue, "ner", 600, 610),    // 11
		us(spanAssembly, "ner", 610, 710), // 12
		us(spanForward, "ner", 715, 815),  // 13
		us(spanRespond, "ner", 815, 820),  // 14
		us(spanForward, "pos", 600, 680),  // 15: inside ner's attempt in time, but pos's
		us(spanAttempt, "pos", 575, 685),  // 16
	}
}

func TestResolveParentsKeepsParallelBranchesApart(t *testing.T) {
	spans := pipelineSpans()
	resolveParents(spans)
	want := []int{-1, 0, 1, 2, 2, 2, 3, 4, 5, 8, 9, 10, 10, 10, 10, 16, 7}
	for i, s := range spans {
		if s.Parent != want[i] {
			t.Errorf("span %d (%s %s) has parent %d, want %d", i, s.Name, s.App, s.Parent, want[i])
		}
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	spans := pipelineSpans()
	resolveParents(spans)
	// pipeline [150,850] minus the union of asr [150,550], pos
	// [550,700] and ner [560,850], which covers all of it.
	if got := selfTime(spans, 2); got != 0 {
		t.Errorf("pipeline self time = %v, want 0", got)
	}
	// stage:ner [560,850] minus its router call [580,830].
	if got := selfTime(spans, 5); got != 40*time.Microsecond {
		t.Errorf("stage:ner self time = %v, want 40µs", got)
	}
	// route_attempt [585,825] minus queue, assembly, forward, respond
	// (10+100+100+5); the 5 µs gap before forward stays with the attempt.
	if got := selfTime(spans, 10); got != 25*time.Microsecond {
		t.Errorf("route_attempt self time = %v, want 25µs", got)
	}
}

func TestBlockingPathAndLedgerAddUpToTheQuery(t *testing.T) {
	spans := pipelineSpans()
	resolveParents(spans)
	onPath := map[int]bool{}
	for _, i := range blockingPath(spans) {
		onPath[i] = true
	}
	for _, i := range []int{4, 7, 15, 16} { // the POS branch ran in NER's shadow
		if onPath[i] {
			t.Errorf("span %d (%s %s) is on the blocking path", i, spans[i].Name, spans[i].App)
		}
	}
	for _, i := range []int{0, 1, 2, 3, 5, 6, 8, 13} {
		if !onPath[i] {
			t.Errorf("span %d (%s %s) is missing from the blocking path", i, spans[i].Name, spans[i].App)
		}
	}
	lg := newLedger()
	lg.add(kindPipe, spans, blockingPath(spans))
	var sum float64
	for _, layer := range ledgerLayers {
		sum += lg.layers[kindPipe][layer][0]
	}
	// Everything but the 10 µs before stage:ner starts, which only the
	// off-path POS stage covers, is some on-path span's self time.
	if root := lg.total[kindPipe][0]; !near(sum, root-0.010) {
		t.Errorf("layers sum to %v ms of a %v ms query", sum, root)
	}
	if got := lg.layers[kindPipe]["service.forward"][0]; !near(got, 0.1) {
		t.Errorf("forward on the blocking path = %v ms, want NER's 0.1", got)
	}
}

func TestSpanStatsPrePostAndOverlap(t *testing.T) {
	spans := pipelineSpans()
	resolveParents(spans)
	ss := newSpanStats()
	ss.add(kindPipe, spans)
	// On the blocking path, stages asr and ner: pre 50 + 20 µs, post
	// 50 + 20 µs, backend calls 300 + 250 of the stages' 400 + 290 µs.
	if !near(ss.pre[0], 0.070) || !near(ss.post[0], 0.070) || !near(ss.dnnShare[0], 550.0/690) {
		t.Errorf("pre %v post %v dnn share %v, want 0.070, 0.070, 0.797", ss.pre, ss.post, ss.dnnShare)
	}
	if !near(ss.forward[0], 0.1) || !near(ss.assembly[0], 0.1) {
		t.Errorf("forward %v assembly %v, want NER's 0.1 and 0.1", ss.forward, ss.assembly)
	}
	// POS [550,700] and NER [560,850] overlap for 140 of POS's 150 µs.
	if len(ss.overlap) != 1 || !near(ss.overlap[0], 140.0/150) {
		t.Errorf("overlap = %v, want [0.933]", ss.overlap)
	}
	// The gateway tier's addition: round trip minus the union of the
	// router calls [200,500] ∪ [570,830].
	if len(ss.gatewayAdded) != 1 || !near(ss.gatewayAdded[0], 0.440) {
		t.Errorf("gateway added = %v, want [0.440]", ss.gatewayAdded)
	}
	if ss.orphans != 0 {
		t.Errorf("%d orphan spans", ss.orphans)
	}
}

func TestLadderAddedIsOverTheBoundaryBelow(t *testing.T) {
	r := ladderRow{app: models.POS, rungs: map[string]rung{
		"tensor": {p50ms: 3}, "nn": {p50ms: 2}, "service": {p50ms: 4.5}, "djrt": {p50ms: 4.7},
		"router": {p50ms: 4.75}, "gateway": {p50ms: 5.1}, "tonic": {p50ms: 4.9},
	}}
	for b, want := range map[string]float64{
		"tensor": 0, "nn": 0, "service": 2.5, "djrt": 0.2, "router": 0.05, "gateway": 0.35, "tonic": 0.2,
	} {
		if got := r.added(b); math.Abs(got-want) > 1e-9 {
			t.Errorf("added(%s) = %v, want %v", b, got, want)
		}
	}
}

func TestZipfCDF(t *testing.T) {
	cdf := zipfCDF(4, 1) // weights 1, 1/2, 1/3, 1/4 of 25/12
	want := []float64{12.0 / 25, 18.0 / 25, 22.0 / 25, 1}
	for i := range cdf {
		if !near(cdf[i], want[i]) {
			t.Errorf("cdf[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
	for _, c := range []struct {
		u    float64
		want int
	}{{0, 0}, {0.47, 0}, {0.5, 1}, {0.9, 3}, {1, 3}} {
		if got := drawCDF(cdf, c.u); got != c.want {
			t.Errorf("drawCDF(%v) = %d, want %d", c.u, got, c.want)
		}
	}
}

func TestNoisyCanary(t *testing.T) {
	if noisy(3.2, 3.0) {
		t.Error("a 6 % gap is not noisy")
	}
	if !noisy(3.2, 2.8) || !noisy(2.8, 3.2) {
		t.Error("a 12.5 % gap is noisy either way round")
	}
}

func TestRelativeGapIsTheSameEitherWayRound(t *testing.T) {
	if a, b := relativeGap(100, 140), relativeGap(140, 100); !near(a, 0.4) || a != b {
		t.Errorf("gap(100,140) = %v, gap(140,100) = %v, want 0.4 both", a, b)
	}
	if got := relativeGap(5, 5); got != 0 {
		t.Errorf("gap of equal readings = %v", got)
	}
	if got := relativeGap(0, 3); !math.IsInf(got, 1) {
		t.Errorf("gap from zero = %v, want +Inf", got)
	}
}

// TestBenchmarkJSONMatchesTheCode holds BENCHMARK.json and the lists
// the program reports from together.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bf struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", bf.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", bf.Paths)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads = %v, the program has %v", names, want)
	}
	check := func(kind string, file []metric, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(file), len(code))
			return
		}
		for i, d := range code {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s[%d] = %s (%s), the program reports %s (%s)", kind, i, file[i].Name, file[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndMetrics)
	check("per_layer", bf.PerLayer, perLayerMetrics)
}
