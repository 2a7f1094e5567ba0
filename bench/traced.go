package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"

	"djinn/internal/models"
	"djinn/internal/tonic"
)

// Shares of a traced run's seconds: an untraced window and a traced
// window of the same length (their throughput gap is the tracing
// overhead), then the boundary ladder.
const (
	tracedWindowShare = 0.35
	ladderShare       = 0.30
)

var ladderApps = []models.App{models.POS, models.CHK, models.NER, models.DIG, models.IMC, models.ASR}

var perLayerMetrics = buildPerLayerMetrics()

func buildPerLayerMetrics() []metricDef {
	defs := []metricDef{
		{"tonic.pre_ms_p50", "ms"}, {"tonic.post_ms_p50", "ms"}, {"tonic.dnn_share", "share"},
		{"service.queue_ms_p50", "ms"}, {"service.assembly_ms_p50", "ms"},
		{"service.forward_ms_p50", "ms"}, {"service.respond_ms_p50", "ms"},
		{"service.avg_batch_instances", "count"}, {"service.batches", "count"}, {"service.shed", "count"},
		{"service.djrt_added_ms_p50", "ms"}, {"service.djrt_allocs_per_query", "count"},
		{"router.added_ms_p50", "ms"}, {"router.route_ms_p50", "ms"}, {"router.retries", "count"},
		{"gateway.added_ms_p50", "ms"}, {"gateway.hit_ms_p50", "ms"}, {"gateway.miss_ms_p50", "ms"},
		{"gateway.cache_hit_share", "share"}, {"gateway.cache_evictions", "count"}, {"gateway.body_kb_per_query", "KB"},
		{"pipeline.stage_asr_ms_p50", "ms"}, {"pipeline.stage_pos_ms_p50", "ms"}, {"pipeline.stage_ner_ms_p50", "ms"},
		{"pipeline.overlap_share", "share"},
	}
	for _, a := range ladderApps {
		n := tonic.ServiceName(a)
		defs = append(defs,
			metricDef{"nn.plan_run_ms_p50." + n, "ms"}, metricDef{"nn.plan_allocs_per_run." + n, "count"},
			metricDef{"nn.activation_mb." + n, "MB"},
			metricDef{"tensor.gemm_gflops." + n, "GFLOP/s"}, metricDef{"tensor.flops_per_query." + n, "MFLOP"},
			metricDef{"tensor.bytes_per_query." + n, "MB"})
	}
	return append(defs,
		metricDef{"loadgen.lag_p99_ms", "ms"}, metricDef{"loadgen.latency_p99_ms", "ms"},
		metricDef{"loadgen.attainment_r1", "share"}, metricDef{"loadgen.attainment_r2", "share"},
		metricDef{"loadgen.attainment_r3", "share"}, metricDef{"loadgen.max_rate_at_slo_qps", "1/s"},
		metricDef{"trace.overhead_share", "share"},
		metricDef{"host.canary_gflops_before", "GFLOP/s"}, metricDef{"host.canary_gflops_after", "GFLOP/s"})
}

// runTraced is the per-layer pass. Every per-layer metric is reported
// for every workload; one that does not apply (gateway.* on a DJRT
// workload, nn.*.imc on an NLP one) is zero.
func runTraced(out io.Writer, w *workloadDef, seed uint64, seconds float64) (*result, error) {
	winSeconds := seconds * tracedWindowShare
	pop, _, err := prepare(w, seed, winSeconds)
	if err != nil {
		return nil, err
	}
	before := canary()

	l, _, err := setUp(w, pop, nil)
	if err != nil {
		return nil, err
	}
	plain := summarize(w, pop, measure(w, l, pop, winSeconds, "q"))
	l.close()

	rec := newRecorder()
	if l, _, err = setUp(w, pop, rec); err != nil {
		return nil, err
	}
	win := measure(w, l, pop, winSeconds, "t")
	byQuery := rec.collect(l.st.gwStore, l.st.tiers)
	l.close()
	traced := summarize(w, pop, win)

	rows, err := runLadder(w, pop, time.Duration(seconds*ladderShare*float64(time.Second)))
	if err != nil {
		return nil, err
	}
	after := canary()

	// The span-derived numbers describe the same queries latency_p50_ms
	// does: every correct reply, or on the open loop those of step r1.
	ss := newSpanStats()
	var hit, miss, bodyKB []float64
	for _, s := range win.samples {
		if !s.ok() || (w.open && s.step != latencyStep) {
			continue
		}
		kind := s.kind
		if s.cached {
			kind += " (cache hit)"
		}
		ss.add(kind, byQuery[s.trace])
		if s.bytes > 0 {
			bodyKB = append(bodyKB, float64(s.bytes)/1024)
		}
		if w.transport == "http" && s.kind != kindPipe {
			if s.cached {
				hit = append(hit, ms(s.latency()))
			} else {
				miss = append(miss, ms(s.latency()))
			}
		}
	}

	printSummary(out, w, "untraced window", plain)
	printSummary(out, w, "traced window", traced)
	ss.ledger.print(out)
	if ss.orphans > 0 {
		fmt.Fprintf(out, "  %d spans found no parent and are outside the ledger\n", ss.orphans)
	}
	printLadder(out, rows)
	path, err := writeSpans(filepath.Join("bench", "out"), w.name, byQuery)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "  spans of %d queries written to %s\n", len(byQuery), path)
	printCanary(out, before, after)

	res := newResult()
	res.attempted, res.failed = plain.sent+traced.sent, plain.failed+traced.failed
	for _, d := range perLayerMetrics {
		res.set(perLayerMetrics, d.name, 0)
	}
	set := func(name string, v float64) { res.set(perLayerMetrics, name, v) }
	set("tonic.pre_ms_p50", median(ss.pre))
	set("tonic.post_ms_p50", median(ss.post))
	set("tonic.dnn_share", median(ss.dnnShare))
	set("service.queue_ms_p50", median(ss.queue))
	set("service.assembly_ms_p50", median(ss.assembly))
	set("service.forward_ms_p50", median(ss.forward))
	set("service.respond_ms_p50", median(ss.respond))
	svc0, svc1 := win.svc[0], win.svc[1]
	if batches := svc1.Batches - svc0.Batches; batches > 0 {
		set("service.avg_batch_instances", float64(svc1.Instances-svc0.Instances)/float64(batches))
		set("service.batches", float64(batches))
	}
	set("service.shed", float64(svc1.Shed()-svc0.Shed()))
	set("router.added_ms_p50", median(ss.routerAdded))
	set("router.route_ms_p50", median(ss.route))
	set("router.retries", float64((win.sent[1]-win.sent[0])-(win.routed[1]-win.routed[0])))
	set("gateway.added_ms_p50", median(ss.gatewayAdded))
	set("gateway.hit_ms_p50", median(hit))
	set("gateway.miss_ms_p50", median(miss))
	c0, c1 := win.gw[0].Cache, win.gw[1].Cache
	// A miss is counted by the lookup and again by the fill it leads
	// to, so lookups are hits + fills + fills waited on.
	if lookups := (c1.Hits - c0.Hits) + (c1.Fills - c0.Fills) + (c1.Dedup - c0.Dedup); lookups > 0 {
		set("gateway.cache_hit_share", float64(c1.Hits-c0.Hits)/float64(lookups))
	}
	set("gateway.cache_evictions", float64(c1.Evictions-c0.Evictions))
	set("gateway.body_kb_per_query", mean(bodyKB))
	set("pipeline.stage_asr_ms_p50", median(ss.stage[kindASR]))
	set("pipeline.stage_pos_ms_p50", median(ss.stage[kindPOS]))
	set("pipeline.stage_ner_ms_p50", median(ss.stage[kindNER]))
	set("pipeline.overlap_share", median(ss.overlap))
	for _, r := range rows {
		n := tonic.ServiceName(r.app)
		set("nn.plan_run_ms_p50."+n, r.rungs["nn"].p50ms)
		set("nn.plan_allocs_per_run."+n, r.rungs["nn"].allocs)
		set("nn.activation_mb."+n, r.activationMB)
		set("tensor.gemm_gflops."+n, r.gflops)
		set("tensor.flops_per_query."+n, r.mflopPerQuery)
		set("tensor.bytes_per_query."+n, r.mbPerQuery)
		if r.app == w.primary {
			set("service.djrt_added_ms_p50", r.added("djrt"))
			set("service.djrt_allocs_per_query", r.rungs["djrt"].allocs-r.rungs["service"].allocs)
		}
	}
	// Generator health comes from the untraced window.
	var lag float64
	for i, p := range plain.phases {
		if w.open {
			set(fmt.Sprintf("loadgen.attainment_r%d", i+1), p.attainment())
		}
		if p.name != "r3" && p.lagP99 > lag {
			lag = p.lagP99
		}
	}
	set("loadgen.lag_p99_ms", lag)
	set("loadgen.latency_p99_ms", plain.p99)
	set("loadgen.max_rate_at_slo_qps", maxRateAtSLO(w, plain))
	// Two ~9 s windows' throughputs differ by more than tracing costs;
	// the CPU a query takes is steadier, and is what a recorder spends.
	if plain.cpuMs > 0 {
		set("trace.overhead_share", (traced.cpuMs-plain.cpuMs)/plain.cpuMs)
	}
	set("host.canary_gflops_before", before)
	set("host.canary_gflops_after", after)
	return res, nil
}
