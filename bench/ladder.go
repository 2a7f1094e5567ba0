package main

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"image/png"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"djinn/internal/gateway"
	"djinn/internal/models"
	"djinn/internal/nn"
	"djinn/internal/service"
	"djinn/internal/tensor"
	"djinn/internal/tonic"
	"djinn/internal/workload"
)

// The boundary ladder pushes one app's queries, serially, through each
// boundary of the stack in turn, so "what does this tier cost" is the
// difference between two adjacent rows.
var boundaries = []string{"tensor", "nn", "service", "djrt", "router", "gateway", "tonic"}

const (
	ladderItems   = 6   // distinct queries per app
	ladderMinReps = 3   // per boundary, however slow the app
	ladderMaxReps = 200 // per boundary, however fast
)

// ladderItem is one query in every form the boundaries take it.
type ladderItem struct {
	q       *query    // the Tonic app call
	payload []float32 // what that call sends to the DNN service
	body    []byte    // the uncached /v1/infer request for it
}

// rung is one boundary's measurement for one app.
type rung struct {
	p50ms  float64
	allocs float64
	kb     float64
	reps   int
}

type ladderRow struct {
	app   models.App
	rungs map[string]rung
	// From the kernel descriptors (computed, not measured).
	gemmM, gemmN, gemmK int
	gflops              float64
	mflopPerQuery       float64
	mbPerQuery          float64
	activationMB        float64
	instances           int
}

// captureBackend answers every query with zeros of the right shape and
// keeps the payloads: the cheapest way to learn what a Tonic app sends.
type captureBackend struct {
	sent map[string][][]float32
}

func (c *captureBackend) Infer(app string, in []float32) ([]float32, error) {
	c.sent[app] = append(c.sent[app], in)
	a, err := models.ParseApp(strings.ToUpper(app))
	if err != nil {
		return nil, err
	}
	net := models.BuildCached(a)
	return make([]float32, len(in)/elemCount(net.InShape())*elemCount(net.OutShape())), nil
}

func elemCount(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// ladderQueries picks the workload's first few queries that exercise
// app. The pipeline workload's POS and NER rows tag the reference
// transcripts, as the pipeline's own stages do.
func ladderQueries(app models.App, distinct []*query) []*query {
	name := tonic.ServiceName(app)
	var out []*query
	for _, q := range distinct {
		switch {
		case q.kind == name:
			out = append(out, q)
		case q.kind == kindPipe && app == models.ASR:
			out = append(out, &query{kind: kindASR, audio: q.audio})
		case q.kind == kindPipe:
			transcript, _, _ := strings.Cut(q.want, "|")
			out = append(out, &query{kind: name, text: transcript})
		}
		if len(out) == ladderItems {
			break
		}
	}
	return out
}

func inferBody(q *query) ([]byte, error) {
	req := map[string]any{"app": q.kind, "no_cache": true}
	switch q.kind {
	case kindDIG:
		req["digits"] = q.digits
	case kindIMC:
		var buf bytes.Buffer
		if err := png.Encode(&buf, q.img); err != nil {
			return nil, err
		}
		req["image"] = base64.StdEncoding.EncodeToString(buf.Bytes())
	case kindASR:
		req["audio"] = base64.StdEncoding.EncodeToString(gateway.EncodePCM16(q.audio))
	default:
		req["text"] = q.text
	}
	return json.Marshal(req)
}

func ladderItemsFor(app models.App, distinct []*query) ([]ladderItem, error) {
	name := tonic.ServiceName(app)
	var items []ladderItem
	for _, q := range ladderQueries(app, distinct) {
		capture := &captureBackend{sent: map[string][][]float32{}}
		if _, err := newTonicApps(capture).run(q); err != nil {
			return nil, err
		}
		if len(capture.sent[name]) == 0 {
			return nil, fmt.Errorf("ladder: %s query sent nothing to %s", q.kind, name)
		}
		body, err := inferBody(q)
		if err != nil {
			return nil, err
		}
		items = append(items, ladderItem{q: q, payload: capture.sent[name][0], body: body})
	}
	if len(items) == 0 {
		return nil, fmt.Errorf("ladder: workload has no %s queries", name)
	}
	return items, nil
}

// climb times fn over the items, round-robin, until the budget is
// spent (at least ladderMinReps, at most ladderMaxReps calls) and
// returns the median, the allocations per call and the bytes per call.
func climb(items []ladderItem, budget time.Duration, fn func(it ladderItem) (bytes int, err error)) (rung, error) {
	if _, err := fn(items[0]); err != nil { // warm
		return rung{}, err
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var lat []float64
	var total int
	start := time.Now()
	for n := 0; n < ladderMaxReps && (n < ladderMinReps || time.Since(start) < budget); n++ {
		t0 := time.Now()
		b, err := fn(items[n%len(items)])
		if err != nil {
			return rung{}, err
		}
		lat = append(lat, ms(time.Since(t0)))
		total += b
	}
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	n := float64(len(lat))
	return rung{
		p50ms: median(lat), allocs: float64(ms1.Mallocs-ms0.Mallocs) / n,
		kb: float64(total) / n / 1024, reps: len(lat),
	}, nil
}

// heaviestGemm returns the shape of one call of the net's most
// expensive GEMM-backed kernel at the given batch, laid out as the
// layer's own arithmetic is: a conv layer multiplies filters
// [outC/groups × taps] by one image's columns [taps × outH·outW] per
// image and group; an FC layer multiplies the batch [batch × in] by the
// transposed weights [in × out].
func heaviestGemm(net *nn.Net, batch int) (m, n, k int) {
	var best float64
	for _, kn := range net.Kernels(batch) {
		if kn.GemmM == 0 || kn.GemmN == 0 || kn.FLOPs <= best {
			continue
		}
		count := kn.GemmCount
		if count == 0 {
			count = 1
		}
		best = kn.FLOPs
		k = int(kn.FLOPs / (2 * float64(kn.GemmM) * float64(kn.GemmN) * float64(count)))
		if kn.Calls > 0 {
			m, n = kn.GemmM, kn.GemmN/batch
		} else {
			m, n = kn.GemmN, kn.GemmM
		}
	}
	return m, n, k
}

// runLadder measures every boundary for each of the workload's apps.
func runLadder(w *workloadDef, pop *population, budget time.Duration) ([]ladderRow, error) {
	st, err := buildStack(w.apps, "http", 1, -1, nil)
	if err != nil {
		return nil, err
	}
	defer st.close()
	conn, err := service.Dial(st.addrs[0])
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	apps := newTonicApps(conn)
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	defer hc.CloseIdleConnections()
	ctx := context.Background()
	per := budget / time.Duration(len(w.apps)*len(boundaries))

	var rows []ladderRow
	for _, app := range w.apps {
		items, err := ladderItemsFor(app, pop.distinct)
		if err != nil {
			return nil, err
		}
		name := tonic.ServiceName(app)
		net := models.BuildCached(app)
		instances := len(items[0].payload) / elemCount(net.InShape())
		row := ladderRow{app: app, rungs: map[string]rung{}, instances: instances}

		// tensor: the app's heaviest GEMM at the batch one query forms.
		row.gemmM, row.gemmN, row.gemmK = heaviestGemm(net, instances)
		if m, n, k := row.gemmM, row.gemmN, row.gemmK; m*n*k > 0 {
			a, b, c := make([]float32, m*k), make([]float32, k*n), make([]float32, m*n)
			rng := tensor.NewRNG(1)
			rng.FillUniform(a, -1, 1)
			rng.FillUniform(b, -1, 1)
			r, err := climb(items, per, func(ladderItem) (int, error) {
				tensor.Gemm(m, n, k, 1, a, b, 0, c)
				return 4 * (m*k + k*n + m*n), nil
			})
			if err != nil {
				return nil, err
			}
			row.rungs["tensor"] = r
			row.gflops = 2 * float64(m) * float64(n) * float64(k) / (r.p50ms / 1e3) / 1e9
		}
		row.mflopPerQuery = net.FLOPs(instances) / 1e6
		for _, kn := range net.Kernels(instances) {
			row.mbPerQuery += (kn.BytesIn + kn.BytesOut) / 1e6
		}

		// nn: a compiled plan at that batch, payload gathered in place.
		plan := net.CompileOpts(instances, nn.CompileOpts{})
		if row.rungs["nn"], err = climb(items, per, func(it ladderItem) (int, error) {
			copy(plan.In(instances).Data(), it.payload)
			out := plan.Run(instances)
			return 4 * (len(it.payload) + out.Len()), nil
		}); err != nil {
			return nil, err
		}
		servicePlan := net.CompileOpts(workload.Get(app).BatchSize*workload.Get(app).Instances, nn.CompileOpts{})
		row.activationMB = float64(servicePlan.ActivationBytes()) / (1 << 20)

		infer := func(b service.ContextBackend) func(ladderItem) (int, error) {
			return func(it ladderItem) (int, error) {
				out, err := b.InferCtx(ctx, name, it.payload)
				return 4 * (len(it.payload) + len(out)), err
			}
		}
		for _, step := range []struct {
			boundary string
			fn       func(ladderItem) (int, error)
		}{
			{"service", infer(st.servers[0])},
			{"djrt", infer(conn)},
			{"router", infer(st.rt)},
			{"gateway", func(it ladderItem) (int, error) {
				resp, err := hc.Post(st.url+"/v1/infer", "application/json", bytes.NewReader(it.body))
				if err != nil {
					return 0, err
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
				}
				return len(it.body) + len(raw), err
			}},
			{"tonic", func(it ladderItem) (int, error) {
				_, err := apps.run(it.q)
				return 4 * len(it.payload), err
			}},
		} {
			if row.rungs[step.boundary], err = climb(items, per, step.fn); err != nil {
				return nil, fmt.Errorf("ladder %s at %s: %w", name, step.boundary, err)
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// added is a boundary's median minus the median of the boundary it
// sits on: the gateway and the Tonic app call both sit on a transport
// (router and DJRT), the others on the row before them. The tensor row
// is one kernel call and the nn row a whole forward pass, so neither
// has a difference to show.
func (r ladderRow) added(boundary string) float64 {
	below := map[string]string{"service": "nn", "djrt": "service", "router": "djrt", "gateway": "router", "tonic": "djrt"}
	b, ok := below[boundary]
	if !ok {
		return 0
	}
	return r.rungs[boundary].p50ms - r.rungs[b].p50ms
}

func printLadder(out io.Writer, rows []ladderRow) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].app < rows[j].app })
	fmt.Fprintln(out, "  boundary ladder: one app's queries pushed serially through each boundary")
	fmt.Fprintf(out, "    %-4s %-8s %10s %10s %12s %10s %5s\n", "app", "boundary", "p50 ms", "added ms", "allocs/query", "KB/query", "reps")
	for _, r := range rows {
		name := tonic.ServiceName(r.app)
		for _, b := range boundaries {
			g := r.rungs[b]
			fmt.Fprintf(out, "    %-4s %-8s %10.3f %+10.3f %12.1f %10.1f %5d\n", name, b, g.p50ms, r.added(b), g.allocs, g.kb, g.reps)
		}
		fmt.Fprintf(out, "    %-4s %d instances/query; heaviest GEMM %d×%d×%d at %.2f GFLOP/s; from the kernel descriptors (computed): %.1f MFLOP and %.2f MB moved per query; one service plan holds %.1f MB of activations\n",
			name, r.instances, r.gemmM, r.gemmN, r.gemmK, r.gflops, r.mflopPerQuery, r.mbPerQuery, r.activationMB)
	}
}
