package experiments

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"djinn/internal/gateway"
	"djinn/internal/models"
	"djinn/internal/router"
	"djinn/internal/service"
	"djinn/internal/tensor"
	"djinn/internal/tonic"
	"djinn/internal/trace"
	"djinn/internal/workload"
)

// The gateway experiment measures what the HTTP/JSON tier adds on top
// of the raw DJRT fleet: (a) the content-addressed response cache
// serving a repeating NLP query population at a large multiple of the
// uncached rate, and (b) the server-side ASR→POS→NER pipeline against
// three sequential client round-trips — the POS and NER stages share
// the transcript server-side and run concurrently, so the composite
// pays one HTTP exchange instead of three and the shorter of the two
// NLP forward passes not at all. Both are wall-clock comparisons, so
// the report records them and no test asserts them: the pipeline's
// saving is a few per cent of a query that is almost all ASR forward
// pass, within that pass's run-to-run spread on short utterances.

// GatewayOptions sizes the experiment; RenderGateway uses the
// defaults, the acceptance test shrinks them.
type GatewayOptions struct {
	Replicas int
	// Part (a): cache study on POS.
	Sentences   int           // distinct sentences in the repeating population
	Rate        float64       // offered load per arm (open loop, q/s)
	Drive       time.Duration // per-arm drive length
	MaxInflight int
	// Part (b): pipeline study.
	AudioSeconds float64 // utterance length per iteration
	Iterations   int
}

// GatewayResult is the measured outcome.
type GatewayResult struct {
	Uncached workload.DriveResult
	Cached   workload.DriveResult
	Speedup  float64 // cached QPS / uncached QPS
	Cache    gateway.CacheStats

	SeqP50  time.Duration // three sequential round-trips
	SeqP95  time.Duration
	PipeP50 time.Duration // one /v1/pipeline request
	PipeP95 time.Duration
	// MedianDelta is the median of per-iteration (sequential −
	// pipeline) gaps. The same utterance runs through both arms each
	// iteration, so pairing cancels the ASR forward's run-to-run
	// variance, which on a loaded host can exceed the structural win.
	MedianDelta time.Duration
	StageSpans  int    // "stage:" spans in the merged trace (want 3)
	Merged      string // one merged cross-tier trace, formatted
}

// gatewayFleet is an in-process fleet behind a router behind the
// gateway, serving HTTP on a loopback listener.
type gatewayFleet struct {
	gw      *gateway.Gateway
	rt      *router.Router
	servers []*service.Server
	stores  []*trace.Store
	hsrv    *http.Server
	url     string
	client  *http.Client
}

func newGatewayFleet(replicas int, apps []models.App) (*gatewayFleet, error) {
	f := &gatewayFleet{
		rt: router.New(router.Config{Policy: router.LeastOutstanding}),
	}
	f.stores = append(f.stores, f.rt.TraceStore())
	for i := 0; i < replicas; i++ {
		srv := service.NewServer()
		srv.SetLogger(func(string, ...any) {})
		st := trace.NewStore(fmt.Sprintf("replica-%d", i), 0)
		srv.SetTraceStore(st)
		for _, a := range apps {
			if err := tonic.Register(srv, a); err != nil {
				return nil, err
			}
		}
		if err := f.rt.AddBackend(fmt.Sprintf("replica-%d", i), srv); err != nil {
			return nil, err
		}
		f.servers = append(f.servers, srv)
		f.stores = append(f.stores, st)
	}
	gw, err := gateway.New(gateway.Config{Backend: f.rt})
	if err != nil {
		return nil, err
	}
	f.gw = gw
	f.stores = append([]*trace.Store{gw.Traces()}, f.stores...)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.hsrv = &http.Server{Handler: gw}
	go f.hsrv.Serve(ln)
	f.url = "http://" + ln.Addr().String()
	f.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	return f, nil
}

func (f *gatewayFleet) close() {
	f.client.CloseIdleConnections()
	f.hsrv.Close()
	f.rt.Close()
	for _, srv := range f.servers {
		srv.Close()
	}
}

// post sends one JSON request and decodes the response envelope.
func (f *gatewayFleet) post(path string, body map[string]any) (map[string]json.RawMessage, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := f.client.Post(f.url+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(out)))
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(out, &m); err != nil {
		return nil, err
	}
	return m, nil
}

// audioBody synthesises one base64 PCM16 utterance field.
func audioBody(rng *tensor.RNG, seconds float64) string {
	return base64.StdEncoding.EncodeToString(gateway.EncodePCM16(workload.Utterance(rng, seconds)))
}

// RunGateway executes both parts against one fleet.
func RunGateway(opts GatewayOptions) (*GatewayResult, error) {
	if opts.Replicas <= 0 {
		opts.Replicas = 3
	}
	fleet, err := newGatewayFleet(opts.Replicas, []models.App{models.ASR, models.POS, models.NER})
	if err != nil {
		return nil, err
	}
	defer fleet.close()
	res := &GatewayResult{}

	// Part (a): the same repeating sentence population offered far
	// above the engine's capacity, once with the cache bypassed and
	// once through it. The inflight bound turns the open loop into a
	// capacity measurement: arrivals queue behind the semaphore, so
	// measured QPS is what each path can actually sustain.
	sentences := make([]string, opts.Sentences)
	rng := tensor.NewRNG(11)
	for i := range sentences {
		sentences[i] = workload.Sentence(rng, workload.SentenceWords)
	}
	arm := func(noCache bool) workload.DriveResult {
		i := 0
		return workload.DriveHTTP(workload.HTTPOptions{
			URL:    fleet.url + "/v1/infer",
			Bodies: len(sentences),
			Body: func(*tensor.RNG) []byte {
				body := map[string]any{"app": "pos", "text": sentences[i%len(sentences)]}
				if noCache {
					body["no_cache"] = true
				}
				i++
				raw, _ := json.Marshal(body)
				return raw
			},
			Rate:        opts.Rate,
			MaxInflight: opts.MaxInflight,
			Duration:    opts.Drive,
		})
	}
	res.Uncached = arm(true)
	res.Cached = arm(false)
	if res.Uncached.QPS > 0 {
		res.Speedup = res.Cached.QPS / res.Uncached.QPS
	}
	res.Cache = fleet.gw.Stats().Cache

	// Part (b): the composite speech query, both ways, fresh audio
	// per iteration so no response cache is involved in either arm.
	seqLat := make([]time.Duration, 0, opts.Iterations)
	pipeLat := make([]time.Duration, 0, opts.Iterations)
	audioRNG := tensor.NewRNG(23)
	stages := []map[string]any{
		{"name": "asr", "app": "asr"},
		{"name": "pos", "app": "pos", "after": []string{"asr"}},
		{"name": "ner", "app": "ner", "after": []string{"asr"}},
	}
	var lastTraceID string
	for n := 0; n < opts.Iterations+1; n++ {
		audio := audioBody(audioRNG, opts.AudioSeconds)
		warm := n == 0 // first iteration warms plan pools and HTTP conns

		t0 := time.Now()
		m, err := fleet.post("/v1/infer", map[string]any{"app": "asr", "audio": audio, "no_cache": true})
		if err != nil {
			return nil, fmt.Errorf("sequential asr: %w", err)
		}
		var val struct {
			Text string `json:"text"`
		}
		if err := json.Unmarshal(m["result"], &val); err != nil {
			return nil, err
		}
		text := val.Text
		if text == "" {
			text = "silence" // synthetic audio can decode to nothing
		}
		for _, app := range []string{"pos", "ner"} {
			if _, err := fleet.post("/v1/infer", map[string]any{"app": app, "text": text, "no_cache": true}); err != nil {
				return nil, fmt.Errorf("sequential %s: %w", app, err)
			}
		}
		seq := time.Since(t0)

		t0 = time.Now()
		m, err = fleet.post("/v1/pipeline", map[string]any{"stages": stages, "audio": audio})
		if err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
		pipe := time.Since(t0)
		json.Unmarshal(m["trace_id"], &lastTraceID)
		if !warm {
			seqLat = append(seqLat, seq)
			pipeLat = append(pipeLat, pipe)
		}
	}
	res.SeqP50, res.SeqP95 = percentiles(seqLat)
	res.PipeP50, res.PipeP95 = percentiles(pipeLat)
	deltas := make([]time.Duration, len(seqLat))
	for i := range seqLat {
		deltas[i] = seqLat[i] - pipeLat[i]
	}
	res.MedianDelta, _ = percentiles(deltas)

	if merged, ok := trace.Merge(lastTraceID, fleet.stores...); ok {
		res.Merged = merged.Format()
		for _, sp := range merged.Spans {
			// Merge prefixes span names with their source tier
			// ("gateway/stage:asr"), so match anywhere in the name.
			if strings.Contains(sp.Name, "stage:") {
				res.StageSpans++
			}
		}
	}
	return res, nil
}

func percentiles(lats []time.Duration) (p50, p95 time.Duration) {
	if len(lats) == 0 {
		return 0, 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2], s[(len(s)*95)/100]
}

// RenderGateway runs the full-size experiment and renders it.
func RenderGateway() string {
	opts := GatewayOptions{
		Replicas:     3,
		Sentences:    16,
		Rate:         30000,
		Drive:        2 * time.Second,
		MaxInflight:  4,
		AudioSeconds: 0.25,
		Iterations:   9,
	}
	res, err := RunGateway(opts)
	if err != nil {
		return fmt.Sprintf("gateway experiment failed: %v", err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Gateway tier: HTTP/JSON front end over a %d-replica fleet\n\n", opts.Replicas)
	fmt.Fprintf(&b, "Part (a): content-addressed response cache, %d repeating POS sentences, %v per arm\n",
		opts.Sentences, opts.Drive)
	t := &table{header: []string{"arm", "qps", "p50", "p99", "served"}}
	t.add("uncached", fmt.Sprintf("%.0f", res.Uncached.QPS),
		res.Uncached.Latency.P50.Round(time.Microsecond).String(),
		res.Uncached.Latency.P99.Round(time.Microsecond).String(),
		fmt.Sprintf("%d", res.Uncached.Queries))
	t.add("cached", fmt.Sprintf("%.0f", res.Cached.QPS),
		res.Cached.Latency.P50.Round(time.Microsecond).String(),
		res.Cached.Latency.P99.Round(time.Microsecond).String(),
		fmt.Sprintf("%d", res.Cached.Queries))
	b.WriteString(t.String())
	hitRate := 0.0
	if res.Cache.Hits+res.Cache.Misses > 0 {
		hitRate = 100 * float64(res.Cache.Hits) / float64(res.Cache.Hits+res.Cache.Misses)
	}
	fmt.Fprintf(&b, "\ncache speedup: %.1fx cached/uncached qps, recorded not asserted (hit rate %.1f%%, %d entries, %d fills, %d bytes)\n",
		res.Speedup, hitRate, res.Cache.Entries, res.Cache.Fills, res.Cache.Bytes)

	fmt.Fprintf(&b, "\nPart (b): ASR→POS→NER composite, %.2fs utterances, %d iterations\n",
		opts.AudioSeconds, opts.Iterations)
	t2 := &table{header: []string{"arm", "p50", "p95"}}
	t2.add("3 round-trips", res.SeqP50.Round(time.Millisecond).String(), res.SeqP95.Round(time.Millisecond).String())
	t2.add("/v1/pipeline", res.PipeP50.Round(time.Millisecond).String(), res.PipeP95.Round(time.Millisecond).String())
	b.WriteString(t2.String())
	fmt.Fprintf(&b, "\nmedian per-utterance gap, sequential − pipeline: %v, recorded not asserted (one HTTP exchange, POS∥NER off the shared transcript)\n",
		res.MedianDelta.Round(100*time.Microsecond))
	fmt.Fprintf(&b, "\nmerged trace (%d stage spans across gateway/router/replica tiers):\n%s", res.StageSpans, res.Merged)
	return b.String()
}
