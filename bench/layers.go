package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Layers of the ledger, outermost first. Every span's self time goes
// to exactly one of them, so one query's rows add up to its latency.
var ledgerLayers = []string{
	"http", "gateway", "pipeline", "tonic", "router", "djrt",
	"service.queue", "service.assembly", "service.forward", "service.respond",
}

// layerOf says whose time a span's self time is. The self time of a
// cache_fill or a stage is what RunApp spends around its backend
// calls — Tonic's pre- and post-processing inside the gateway. The
// self time of a route_attempt, like that of a DJRT client call, is
// the wire: codec, loopback socket, the replica's connection handler.
var layerOf = map[string]string{
	spanTonic: "tonic", spanHTTP: "http",
	spanGateway: "gateway", spanCache: "gateway",
	spanCacheFill: "tonic", spanPipeline: "pipeline", spanStage: "tonic",
	spanDJRT: "djrt", spanRouter: "router", spanRoute: "router", spanAttempt: "djrt",
	spanQueue: "service.queue", spanAssembly: "service.assembly",
	spanForward: "service.forward", spanRespond: "service.respond",
}

// ledger collects, per query kind, each layer's self time along the
// blocking path and the root span's duration.
type ledger struct {
	layers map[string]map[string][]float64 // kind → layer → ms per query
	total  map[string][]float64            // kind → root span ms per query
}

func newLedger() *ledger {
	return &ledger{layers: map[string]map[string][]float64{}, total: map[string][]float64{}}
}

// add enters one query and returns its row: layer → ms on the
// blocking path (nil when the query left no root span).
func (lg *ledger) add(kind string, spans []span, path []int) map[string]float64 {
	if len(path) == 0 {
		return nil
	}
	per := map[string]float64{}
	for _, i := range path {
		per[layerOf[spans[i].Name]] += ms(selfTime(spans, i))
	}
	if lg.layers[kind] == nil {
		lg.layers[kind] = map[string][]float64{}
	}
	for _, layer := range ledgerLayers {
		lg.layers[kind][layer] = append(lg.layers[kind][layer], per[layer])
	}
	lg.total[kind] = append(lg.total[kind], ms(spans[path[0]].dur()))
	return per
}

// print renders one table per query kind. Means add up across layers
// exactly; medians only roughly, so both are shown against the root.
func (lg *ledger) print(out io.Writer) {
	kinds := make([]string, 0, len(lg.total))
	for k := range lg.total {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		total := lg.total[kind]
		fmt.Fprintf(out, "  layer ledger, %s (%d traced queries): self time on the blocking path\n", kind, len(total))
		fmt.Fprintf(out, "    %-18s %10s %10s %8s\n", "layer", "p50 ms", "mean ms", "share")
		var sumP50, sumMean float64
		for _, layer := range ledgerLayers {
			v := lg.layers[kind][layer]
			p50, m := median(v), mean(v)
			if m == 0 {
				continue
			}
			sumP50 += p50
			sumMean += m
			fmt.Fprintf(out, "    %-18s %10.3f %10.3f %7.1f%%\n", layer, p50, m, 100*m/mean(total))
		}
		fmt.Fprintf(out, "    %-18s %10.3f %10.3f   layers/query: p50 %.3f, mean %.3f\n",
			"sum of layers", sumP50, sumMean, sumP50/median(total), sumMean/mean(total))
		fmt.Fprintf(out, "    %-18s %10.3f %10.3f\n", "query (root span)", median(total), mean(total))
	}
}

// spanStats are the per-layer samples the traced pass draws from its
// spans, in milliseconds unless named a share. Like latency_p50_ms
// they are per query: a query that makes several backend calls (CHK,
// the pipeline) contributes the sum along its blocking path.
type spanStats struct {
	pre, post, dnnShare               []float64 // Tonic pre/post around the backend calls
	queue, assembly, forward, respond []float64 // service stages
	route, routerAdded                []float64 // per routed call
	gatewayAdded                      []float64 // per uncached HTTP query
	stage                             map[string][]float64
	overlap                           []float64
	ledger                            *ledger
	orphans                           int
}

func newSpanStats() *spanStats {
	return &spanStats{stage: map[string][]float64{}, ledger: newLedger()}
}

// add folds one query's resolved span tree into the samples.
func (ss *spanStats) add(kind string, spans []span) {
	path := blockingPath(spans)
	row := ss.ledger.add(kind, spans, path)
	if row == nil {
		return
	}
	onPath := make(map[int]bool, len(path))
	for _, i := range path {
		onPath[i] = true
	}
	var pre, post, inner, outer time.Duration
	var stagePos, stageNer = -1, -1
	for i, s := range spans {
		if s.Parent == -1 && spanLevel[s.Name] > 0 {
			ss.orphans++
		}
		switch s.Name {
		case spanTonic, spanCacheFill, spanStage:
			if s.Name == spanStage {
				ss.stage[s.App] = append(ss.stage[s.App], ms(s.dur()))
				switch s.App {
				case kindPOS:
					stagePos = i
				case kindNER:
					stageNer = i
				}
			}
			// A Tonic app call: pre-processing runs until the first
			// backend call enters, post-processing from the last one's
			// exit; what lies between belongs to the DNN service.
			var calls []int
			for _, k := range childrenOf(spans, i) {
				if spans[k].Name == spanDJRT || spans[k].Name == spanRouter {
					calls = append(calls, k)
				}
			}
			if len(calls) == 0 || !onPath[i] {
				continue
			}
			first, last := spans[calls[0]].Start, spans[calls[0]].End
			for _, k := range calls {
				if spans[k].Start < first {
					first = spans[k].Start
				}
				if spans[k].End > last {
					last = spans[k].End
				}
			}
			pre += first - s.Start
			post += s.End - last
			inner += union(spans, calls)
			outer += s.dur()
		case spanRoute:
			ss.route = append(ss.route, ms(s.dur()))
		case spanRouter:
			// What the router tier adds: the call into it minus the
			// exchanges with replicas it made.
			var attempts []int
			for k := range spans {
				if spans[k].Name == spanAttempt && spans[k].App == s.App {
					attempts = append(attempts, k)
				}
			}
			ss.routerAdded = append(ss.routerAdded, ms(s.dur()-union(spans, attempts)))
		case spanHTTP:
			var calls []int
			for k := range spans {
				if spans[k].Name == spanRouter {
					calls = append(calls, k)
				}
			}
			if len(calls) > 0 {
				ss.gatewayAdded = append(ss.gatewayAdded, ms(s.dur()-union(spans, calls)))
			}
		}
	}
	if outer > 0 { // the query reached a backend: not a cache hit
		ss.pre = append(ss.pre, ms(pre))
		ss.post = append(ss.post, ms(post))
		ss.dnnShare = append(ss.dnnShare, float64(inner)/float64(outer))
		ss.queue = append(ss.queue, row["service.queue"])
		ss.assembly = append(ss.assembly, row["service.assembly"])
		ss.forward = append(ss.forward, row["service.forward"])
		ss.respond = append(ss.respond, row["service.respond"])
	}
	if stagePos >= 0 && stageNer >= 0 {
		p, n := spans[stagePos], spans[stageNer]
		shorter := p.dur()
		if n.dur() < shorter {
			shorter = n.dur()
		}
		if shorter > 0 {
			both := p.dur() + n.dur() - union(spans, []int{stagePos, stageNer})
			ss.overlap = append(ss.overlap, float64(both)/float64(shorter))
		}
	}
}
