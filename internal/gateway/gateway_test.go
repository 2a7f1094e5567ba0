package gateway

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"djinn/internal/models"
	"djinn/internal/router"
	"djinn/internal/service"
	"djinn/internal/tonic"
	"djinn/internal/trace"
)

// errBackend returns a fixed error from every inference, for testing
// the error → status mapping without a real engine.
type errBackend struct{ err error }

func (b errBackend) Infer(string, []float32) ([]float32, error) { return nil, b.err }
func (b errBackend) InferCtx(context.Context, string, []float32) ([]float32, error) {
	return nil, b.err
}

// newNLPGateway boots a gateway over one in-process replica serving
// the SENNA taggers (tiny models, fast to register).
func newNLPGateway(t *testing.T, cfg Config) *Gateway {
	t.Helper()
	srv := service.NewServer()
	srv.SetLogger(func(string, ...any) {})
	t.Cleanup(srv.Close)
	for _, a := range []models.App{models.POS, models.NER} {
		if err := tonic.Register(srv, a); err != nil {
			t.Fatal(err)
		}
	}
	cfg.Backend = srv
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gw
}

func postJSON(gw *Gateway, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	gw.ServeHTTP(w, req)
	return w
}

func TestGatewayStatusMapping(t *testing.T) {
	gw := newNLPGateway(t, Config{BodyLimit: 256})
	tests := []struct {
		name string
		path string
		body string
		want int
	}{
		{"ok", "/v1/infer", `{"app":"pos","text":"the quick brown fox"}`, 200},
		{"malformed json", "/v1/infer", `{"app":`, 400},
		{"duplicate field", "/v1/infer", `{"app":"pos","app":"ner","text":"x"}`, 400},
		{"unknown field", "/v1/infer", `{"app":"pos","text":"x","bogus":1}`, 400},
		{"trailing content", "/v1/infer", `{"app":"pos","text":"x"}{"more":1}`, 400},
		{"missing payload", "/v1/infer", `{"app":"pos"}`, 400},
		{"wrong payload kind", "/v1/infer", `{"app":"pos","audio":"AAAA"}`, 400},
		{"bad base64", "/v1/infer", `{"app":"asr","audio":"!!not-base64!!"}`, 400},
		{"negative deadline", "/v1/infer", `{"app":"pos","text":"x","deadline_ms":-5}`, 400},
		{"unknown app", "/v1/infer", `{"app":"nope","text":"x"}`, 404},
		{"oversized body", "/v1/infer", `{"app":"pos","text":"` + strings.Repeat("a", 300) + `"}`, 413},
		{"unknown preset", "/v1/pipeline", `{"pipeline":"no-such","text":"x"}`, 404},
		{"pipeline cycle", "/v1/pipeline", `{"stages":[{"name":"a","app":"pos","after":["b"]},{"name":"b","app":"ner","after":["a"]}],"text":"x"}`, 400},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			w := postJSON(gw, tc.path, tc.body, nil)
			if w.Code != tc.want {
				t.Errorf("status = %d, want %d (body %s)", w.Code, tc.want, w.Body.String())
			}
		})
	}
	if w := httptest.NewRecorder(); true {
		req := httptest.NewRequest(http.MethodGet, "/v1/infer", nil)
		gw.ServeHTTP(w, req)
		if w.Code != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/infer = %d, want 405", w.Code)
		}
	}
}

func TestGatewayBackendErrorMapping(t *testing.T) {
	tests := []struct {
		err  error
		want int
	}{
		{service.ErrOverloaded, 503},
		{service.ErrShuttingDown, 503},
		{fmt.Errorf("wrap: %w", service.ErrDeadlineExceeded), 504},
		{fmt.Errorf("wrap: %w", service.ErrTransport), 502},
		{fmt.Errorf("some other failure"), 500},
	}
	for _, tc := range tests {
		gw, err := New(Config{Backend: errBackend{tc.err}})
		if err != nil {
			t.Fatal(err)
		}
		w := postJSON(gw, "/v1/infer", `{"app":"pos","text":"x","no_cache":true}`, nil)
		if w.Code != tc.want {
			t.Errorf("%v → status %d, want %d", tc.err, w.Code, tc.want)
		}
		if tc.want == 503 && w.Header().Get("Retry-After") == "" {
			t.Errorf("%v → 503 without Retry-After", tc.err)
		}
	}
}

func TestGatewayRateLimit(t *testing.T) {
	gw := newNLPGateway(t, Config{Limit: LimitConfig{Rate: 1, Burst: 2}})
	body := `{"app":"pos","text":"the quick brown fox"}`
	hdr := map[string]string{"X-API-Key": "tenant-a"}
	for i := 0; i < 2; i++ {
		if w := postJSON(gw, "/v1/infer", body, hdr); w.Code != 200 {
			t.Fatalf("request %d within burst: status %d (%s)", i, w.Code, w.Body.String())
		}
	}
	w := postJSON(gw, "/v1/infer", body, hdr)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("over-burst request: status %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	// A different tenant is unaffected.
	if w := postJSON(gw, "/v1/infer", body, map[string]string{"X-API-Key": "tenant-b"}); w.Code != 200 {
		t.Errorf("other tenant: status %d, want 200", w.Code)
	}
}

func TestGatewayCacheHitHasDistinctCacheSpan(t *testing.T) {
	gw := newNLPGateway(t, Config{})
	body := `{"app":"pos","text":"the quick brown fox jumps"}`

	first := postJSON(gw, "/v1/infer", body, nil)
	if first.Code != 200 {
		t.Fatalf("first request: status %d (%s)", first.Code, first.Body.String())
	}
	var r1, r2 struct {
		Cached  bool            `json:"cached"`
		TraceID string          `json:"trace_id"`
		Result  json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(first.Body.Bytes(), &r1); err != nil {
		t.Fatal(err)
	}
	if r1.Cached {
		t.Fatal("first request must miss the cache")
	}

	second := postJSON(gw, "/v1/infer", body, nil)
	if err := json.Unmarshal(second.Body.Bytes(), &r2); err != nil {
		t.Fatal(err)
	}
	if !r2.Cached {
		t.Fatal("identical second request must be served from cache")
	}
	if !bytes.Equal(r1.Result, r2.Result) {
		t.Error("cached response body differs from the original")
	}

	tr, ok := gw.Traces().Get(r2.TraceID)
	if !ok {
		t.Fatalf("no trace recorded for cached request %s", r2.TraceID)
	}
	var sawCache bool
	for _, sp := range tr.Spans {
		switch sp.Name {
		case "cache":
			sawCache = true
			if !strings.Contains(sp.Note, "hit") {
				t.Errorf("cache span note %q should mark the hit", sp.Note)
			}
		case "forward", "cache_fill":
			t.Errorf("cache-hit trace must not contain a synthetic %s span", sp.Name)
		}
	}
	if !sawCache {
		t.Errorf("cache-hit trace missing the distinct cache span: %+v", tr.Spans)
	}

	// no_cache bypasses the hit path entirely.
	var r3 struct {
		Cached bool `json:"cached"`
	}
	third := postJSON(gw, "/v1/infer", `{"app":"pos","text":"the quick brown fox jumps","no_cache":true}`, nil)
	if err := json.Unmarshal(third.Body.Bytes(), &r3); err != nil {
		t.Fatal(err)
	}
	if r3.Cached {
		t.Error("no_cache request reported cached=true")
	}
}

func TestGatewayCacheToggleEndpoint(t *testing.T) {
	gw := newNLPGateway(t, Config{})
	if w := postJSON(gw, "/v1/cache", `{"app":"pos","enabled":false}`, nil); w.Code != 200 {
		t.Fatalf("toggle off: status %d (%s)", w.Code, w.Body.String())
	}
	body := `{"app":"pos","text":"toggle test sentence"}`
	postJSON(gw, "/v1/infer", body, nil)
	w := postJSON(gw, "/v1/infer", body, nil)
	var r struct {
		Cached bool `json:"cached"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if r.Cached {
		t.Error("cache disabled for pos but repeat request was served cached")
	}
	if w := postJSON(gw, "/v1/cache", `{"app":"nope","enabled":true}`, nil); w.Code != 404 {
		t.Errorf("toggling unknown app: status %d, want 404", w.Code)
	}
}

func TestGatewayAudioRoundTrip(t *testing.T) {
	signal := []float64{0, 0.5, -0.5, 1, -1, 0.25}
	raw := EncodePCM16(signal)
	back, err := DecodePCM16(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(signal) {
		t.Fatalf("round trip length %d, want %d", len(back), len(signal))
	}
	for i := range back {
		if diff := back[i] - signal[i]; diff > 1e-3 || diff < -1e-3 {
			t.Errorf("sample %d: %f vs %f", i, back[i], signal[i])
		}
	}
	if _, err := DecodePCM16([]byte{1, 2, 3}); err == nil {
		t.Error("odd-length PCM must error")
	}
	_ = base64.StdEncoding // keep import symmetry with the wire format
}

// TestGatewayPipelineEndpoint runs a stage DAG — pos, then chk ∥ ner
// off the same input — through /v1/pipeline over a router and two
// replicas. The gateway, router and replica trace stores must merge
// into one trace: one span per stage plus the replica-tier spans
// beneath them.
func TestGatewayPipelineEndpoint(t *testing.T) {
	rt, servers := newNLPFleet(t, router.Config{Policy: router.LeastOutstanding}, 2)
	gw, err := New(Config{Backend: rt})
	if err != nil {
		t.Fatal(err)
	}
	body := `{"stages":[{"name":"tag","app":"pos"},` +
		`{"name":"chunk","app":"chk","after":["tag"]},` +
		`{"name":"rec","app":"ner","after":["tag"]}],"text":"barack obama visited paris"}`
	w := postJSON(gw, "/v1/pipeline", body, nil)
	if w.Code != 200 {
		t.Fatalf("pipeline: status %d (%s)", w.Code, w.Body.String())
	}
	var r struct {
		TraceID string `json:"trace_id"`
		Stages  []struct {
			Name string `json:"name"`
			App  string `json:"app"`
		} `json:"stages"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Stages) != 3 {
		t.Fatalf("want 3 stage results, got %d", len(r.Stages))
	}
	tr, ok := trace.Merge(r.TraceID, gw.Traces(), rt.TraceStore(),
		servers[0].TraceStore(), servers[1].TraceStore())
	if !ok {
		t.Fatalf("no trace for pipeline %s", r.TraceID)
	}
	// Merge prefixes each span with its tier: "gateway/stage:tag".
	stages := map[string]int{}
	var replicaSpans int
	for _, sp := range tr.Spans {
		if _, stage, ok := strings.Cut(sp.Name, "stage:"); ok {
			stages[stage]++
		}
		if strings.HasPrefix(sp.Name, "replica-") {
			replicaSpans++
		}
	}
	if len(stages) != 3 || stages["tag"] != 1 || stages["chunk"] != 1 || stages["rec"] != 1 {
		t.Errorf("want one span per stage, got %v:\n%s", stages, tr.Format())
	}
	if replicaSpans == 0 {
		t.Errorf("merged trace has no replica-tier span:\n%s", tr.Format())
	}
}
