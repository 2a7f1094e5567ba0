package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"djinn/internal/models"
	"djinn/internal/router"
	"djinn/internal/service"
	"djinn/internal/testutil"
	"djinn/internal/tonic"
	"djinn/internal/trace"
)

// newNLPFleet stands up n in-process replicas serving the SENNA taggers
// (POS, CHK, NER) behind one router, each recording spans into its own
// trace store ("replica-0", ...). The test's cleanup closes the router
// and every replica; closing a replica early is fine.
func newNLPFleet(t *testing.T, cfg router.Config, n int) (*router.Router, []*service.Server) {
	t.Helper()
	rt := router.New(cfg)
	t.Cleanup(rt.Close)
	servers := make([]*service.Server, n)
	for i := range servers {
		name := fmt.Sprintf("replica-%d", i)
		srv := service.NewServer()
		srv.SetLogger(func(string, ...any) {})
		srv.SetTraceStore(trace.NewStore(name, 0))
		t.Cleanup(srv.Close)
		for _, a := range []models.App{models.POS, models.CHK, models.NER} {
			if err := tonic.Register(srv, a); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.AddBackend(name, srv); err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
	}
	return rt, servers
}

// TestGatewayKillReplicaMidRunZeroLost drives concurrent HTTP clients
// through the full gateway → router → replica stack — cacheable
// queries, cache-bypassing queries, pipelines, and a rate-limited
// tenant — while one replica dies mid-run. Every accepted request
// must resolve to a definite HTTP status: 200, or an accounted
// shed/limit status (429/503/504). Nothing may be lost and no
// goroutines may leak.
func TestGatewayKillReplicaMidRunZeroLost(t *testing.T) {
	testutil.NoLeaks(t)
	rt, servers := newNLPFleet(t, router.Config{
		Policy: router.LeastOutstanding,
		Health: router.HealthConfig{FailureThreshold: 2, ProbeInterval: 100 * time.Millisecond},
	}, 3)
	victim := servers[0]
	gw, err := New(Config{
		Backend: rt,
		Limit:   LimitConfig{Rate: 50, Burst: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(gw)
	defer hs.Close()

	var issued, ok, accounted atomic.Int64
	var unexplainedMu sync.Mutex
	var firstUnexplained error
	noteUnexplained := func(err error) {
		unexplainedMu.Lock()
		if firstUnexplained == nil {
			firstUnexplained = err
		}
		unexplainedMu.Unlock()
	}
	post := func(client *http.Client, path string, body []byte, tenant string) {
		issued.Add(1)
		req, err := http.NewRequest(http.MethodPost, hs.URL+path, bytes.NewReader(body))
		if err != nil {
			noteUnexplained(err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-API-Key", tenant)
		resp, err := client.Do(req)
		if err != nil {
			// A transport-level failure is a lost request: the gateway
			// must answer even when replicas die under it.
			noteUnexplained(fmt.Errorf("transport: %w", err))
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			ok.Add(1)
		case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			accounted.Add(1)
		case http.StatusInternalServerError:
			// The engine may surface a non-lifecycle failure while its
			// server tears down mid-batch; the request still resolved.
			accounted.Add(1)
		default:
			accounted.Add(1)
			noteUnexplained(fmt.Errorf("unexpected status %d", resp.StatusCode))
		}
	}

	const clients = 6
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{}
			defer client.CloseIdleConnections()
			tenant := fmt.Sprintf("tenant-%d", c%3) // shared tenants → some 429s
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				switch n % 3 {
				case 0: // cacheable: repeats drive fills, dedup, and hits
					body, _ := json.Marshal(map[string]any{
						"app": "pos", "text": fmt.Sprintf("repeated sentence number %d", n%4),
					})
					post(client, "/v1/infer", body, tenant)
				case 1: // unique + no_cache: always reaches the fleet
					body, _ := json.Marshal(map[string]any{
						"app": "ner", "no_cache": true,
						"text": fmt.Sprintf("client %d fresh sentence %d from paris", c, n),
					})
					post(client, "/v1/infer", body, tenant)
				default: // pipeline: multi-stage requests cross the kill
					body, _ := json.Marshal(map[string]any{
						"stages": []map[string]any{
							{"name": "tag", "app": "pos"},
							{"name": "rec", "app": "ner", "after": []string{"tag"}},
						},
						"text": fmt.Sprintf("pipeline input %d for client %d", n, c),
					})
					post(client, "/v1/pipeline", body, tenant)
				}
			}
		}(c)
	}
	// The run is measured in answered requests, not wall time, so a
	// slow host (-race on a busy machine) stretches it instead of
	// cutting it short before the cache has seen repeats: the replica
	// dies after okBeforeKill answers, and the clients stop once
	// okTotal have come back, about a third of them cacheable repeats
	// of four sentences.
	const okBeforeKill, okTotal = 20, 60
	waitOK := func(target int64) bool {
		deadline := time.Now().Add(2 * time.Minute)
		for ok.Load() < target {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(5 * time.Millisecond)
		}
		return true
	}
	reached := waitOK(okBeforeKill)
	if reached {
		victim.Close() // kill one replica mid-run
		reached = waitOK(okTotal)
	}
	close(stop)
	wg.Wait()
	if !reached {
		t.Fatalf("only %d of %d requests answered 200 within the deadline (issued %d)", ok.Load(), okTotal, issued.Load())
	}

	if firstUnexplained != nil {
		t.Fatalf("unexplained failure: %v", firstUnexplained)
	}
	if got := ok.Load() + accounted.Load(); got != issued.Load() {
		t.Fatalf("lost requests: issued %d, resolved %d", issued.Load(), got)
	}
	if ok.Load() == 0 {
		t.Fatal("no request succeeded")
	}
	st := gw.Stats()
	if st.Cache.Fills == 0 || st.Cache.Hits == 0 {
		t.Errorf("cache not exercised under load: %+v", st.Cache)
	}
	t.Logf("issued=%d ok=%d accounted=%d cache=%+v", issued.Load(), ok.Load(), accounted.Load(), st.Cache)
}
