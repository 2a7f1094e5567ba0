package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"djinn/internal/service"
	"djinn/internal/trace"
)

// span is one timed interval at a layer boundary. Spans of one query
// share Trace; App tells parallel branches of one query apart (the
// pipeline's pos ∥ ner). Start and End count from the recorder's epoch
// (nanoseconds in the JSON dump). Parent is an index into the query's
// span list, -1 for the root.
type span struct {
	Trace  string        `json:"trace"`
	Name   string        `json:"name"`
	App    string        `json:"app,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// Span names, outermost first. The level orders them for parent
// resolution: a span's parent is the nearest lower-level span of the
// same query (and the same App, where both carry one) that contains it.
const (
	spanTonic     = "tonic"      // bench: one Tonic app call over DJRT
	spanHTTP      = "http"       // bench: one HTTP round trip
	spanGateway   = "gateway"    // gw.Traces(): handler start to reply encode
	spanCache     = "cache"      // gw.Traces(): served from the response cache
	spanCacheFill = "cache_fill" // gw.Traces(): RunApp + marshal on a miss
	spanPipeline  = "pipeline"   // gw.Traces(): Runner.Run
	spanStage     = "stage"      // gw.Traces(): one pipeline stage (App set)
	spanDJRT      = "djrt"       // bench: wrapper around a client's service.Client
	spanRouter    = "router"     // bench: wrapper around the gateway's Router
	spanRoute     = "route"      // Router.TraceStore(): whole routed query
	spanAttempt   = "route_attempt"
	spanQueue     = "queue_wait" // Server.TraceStore(): enqueue → aggregator
	spanAssembly  = "batch_assembly"
	spanForward   = "forward"
	spanRespond   = "respond"
)

var spanLevel = map[string]int{
	spanTonic: 0, spanHTTP: 0,
	spanGateway: 1,
	spanCache:   2, spanCacheFill: 2, spanPipeline: 2,
	spanStage: 3,
	spanDJRT:  4, spanRouter: 4,
	spanRoute:   5,
	spanAttempt: 6,
	spanQueue:   7, spanAssembly: 7, spanForward: 7, spanRespond: 7,
}

// containSlack absorbs the few hundred nanoseconds by which a span a
// tier records just after its callee returns can appear to end before
// the callee's own last span does.
const containSlack = 50 * time.Microsecond

// resolveParents links one query's spans into a tree.
func resolveParents(spans []span) {
	for i := range spans {
		c := &spans[i]
		c.Parent = -1
		best := -1
		for j := range spans {
			p := &spans[j]
			if i == j || spanLevel[p.Name] >= spanLevel[c.Name] {
				continue
			}
			if p.App != "" && c.App != "" && p.App != c.App {
				continue
			}
			if p.Start-containSlack > c.Start || p.End+containSlack < c.End {
				continue
			}
			if best < 0 {
				best = j
				continue
			}
			b := &spans[best]
			if lp, lb := spanLevel[p.Name], spanLevel[b.Name]; lp > lb || (lp == lb && p.dur() < b.dur()) {
				best = j
			}
		}
		c.Parent = best
	}
}

func childrenOf(spans []span, i int) []int {
	var kids []int
	for j := range spans {
		if spans[j].Parent == i {
			kids = append(kids, j)
		}
	}
	return kids
}

// union is the length of the union of the spans' intervals.
func union(spans []span, idx []int) time.Duration {
	sorted := append([]int(nil), idx...)
	sort.Slice(sorted, func(a, b int) bool { return spans[sorted[a]].Start < spans[sorted[b]].Start })
	var covered, cursor time.Duration
	for n, i := range sorted {
		s, e := spans[i].Start, spans[i].End
		if n == 0 || s > cursor {
			cursor = s
		}
		if e > cursor {
			covered += e - cursor
			cursor = e
		}
	}
	return covered
}

// selfTime is a span's duration minus the part of it its children
// cover; overlapping children (pos ∥ ner) are counted once.
func selfTime(spans []span, i int) time.Duration {
	if self := spans[i].dur() - union(spans, childrenOf(spans, i)); self > 0 {
		return self
	}
	return 0
}

// blockingPath returns the indices of the spans the query's reply
// waited for: from the root, every child except those that ran in the
// shadow of a sibling that ended later.
func blockingPath(spans []span) []int {
	root := -1
	for i := range spans {
		if spans[i].Parent == -1 && (root == -1 || spans[i].dur() > spans[root].dur()) {
			root = i
		}
	}
	if root < 0 {
		return nil
	}
	var path []int
	var walk func(i int)
	walk = func(i int) {
		path = append(path, i)
		kids := childrenOf(spans, i)
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].End > spans[kids[b]].End })
		frontier := spans[i].End + containSlack
		for _, k := range kids {
			if spans[k].End <= frontier {
				walk(k)
				frontier = spans[k].Start + containSlack
			}
		}
	}
	walk(root)
	return path
}

// recorder keeps the traced pass's spans in memory until the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) at(t time.Time) time.Duration { return t.Sub(r.epoch) }

func (r *recorder) record(traceID, name, app string, start, end time.Time) {
	s := span{Trace: traceID, Name: name, App: app, Start: r.at(start), End: r.at(end), Parent: -1}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// spanBackendWrapper records one span around every query a tier sends to the
// backend beneath it. It re-keys the program's trace ID per call
// ("<query>/<app>"), so the spans the router and the replicas record
// for the parallel branches of one pipeline stay apart.
type spanBackendWrapper struct {
	next service.ContextBackend
	rec  *recorder
	name string // spanDJRT or spanRouter: what next is
	// query is the current query's ID for callers that do not carry one
	// in ctx (a closed-loop DJRT client sets it before each app call; it
	// is that client's own wrapper, so nothing else reads it).
	query string
}

func subTrace(query, app string) string { return query + "/" + app }

func (b *spanBackendWrapper) Infer(app string, in []float32) ([]float32, error) {
	return b.InferCtx(context.Background(), app, in)
}

func (b *spanBackendWrapper) InferCtx(ctx context.Context, app string, in []float32) ([]float32, error) {
	query := b.query
	if query == "" {
		query = trace.IDFrom(ctx)
	}
	t0 := time.Now()
	out, err := b.next.InferCtx(trace.WithID(ctx, subTrace(query, app)), app, in)
	b.rec.record(query, b.name, app, t0, time.Now())
	return out, err
}

// collect merges the spans the program's own stores hold for the
// recorder's queries — the gateway's under the query ID, the router's
// and the replicas' under each backend call's sub-ID — and groups
// everything by query.
func (r *recorder) collect(gw *trace.Store, tiers []*trace.Store) map[string][]span {
	r.mu.Lock()
	own := append([]span(nil), r.spans...)
	r.mu.Unlock()
	byQuery := make(map[string][]span)
	for _, s := range own {
		byQuery[s.Trace] = append(byQuery[s.Trace], s)
	}
	for query, spans := range byQuery {
		if gw != nil {
			if tr, ok := gw.Get(query); ok {
				for _, ps := range tr.Spans {
					name, app := ps.Name, ""
					if rest, isStage := strings.CutPrefix(name, "stage:"); isStage {
						name, app = spanStage, rest
					}
					spans = append(spans, r.fromProgram(query, name, app, ps))
				}
			}
		}
		for _, s := range byQuery[query] {
			if s.Name != spanDJRT && s.Name != spanRouter {
				continue
			}
			for _, st := range tiers {
				if tr, ok := st.Get(subTrace(query, s.App)); ok {
					for _, ps := range tr.Spans {
						spans = append(spans, r.fromProgram(query, ps.Name, s.App, ps))
					}
				}
			}
		}
		resolveParents(spans)
		byQuery[query] = spans
	}
	return byQuery
}

func (r *recorder) fromProgram(query, name, app string, ps trace.Span) span {
	return span{Trace: query, Name: name, App: app, Start: r.at(ps.Start), End: r.at(ps.Start.Add(ps.Dur)), Parent: -1}
}

// writeSpans dumps the traced pass to bench/out/<workload>.spans.json.
func writeSpans(dir, workload string, byQuery map[string][]span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	ids := make([]string, 0, len(byQuery))
	for id := range byQuery {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	all := make([][]span, 0, len(ids))
	for _, id := range ids {
		all = append(all, byQuery[id])
	}
	path := filepath.Join(dir, workload+".spans.json")
	data, err := json.Marshal(all)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
