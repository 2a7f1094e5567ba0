package router

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"djinn/internal/events"
	"djinn/internal/nn"
	"djinn/internal/service"
	"djinn/internal/tensor"
	"djinn/internal/testutil"
)

func silence(string, ...any) {}

// tinyNet mirrors the service package's test network: 8 inputs, 4
// softmax outputs, deterministic weights per seed.
func tinyNet(seed uint64) *nn.Net {
	rng := tensor.NewRNG(seed)
	n := nn.NewNet("tiny", nn.KindDNN, 8)
	n.Add(nn.NewFC("fc1", rng, 8, 16)).
		Add(nn.NewReLU("relu")).
		Add(nn.NewFC("fc2", rng, 16, 4)).
		Add(nn.NewSoftmax("prob"))
	return n
}

// startReplica boots one TCP service replica with the tiny model and
// identical weights across replicas, so any replica answers any query
// identically — the property routing relies on.
func startReplica(t *testing.T, cfg service.AppConfig) (*service.Server, string) {
	t.Helper()
	s := service.NewServer()
	s.SetLogger(silence)
	if err := s.Register("tiny", tinyNet(1), cfg); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Close)
	return s, l.Addr().String()
}

func refOutput(t *testing.T, in []float32) []float32 {
	t.Helper()
	r := tinyNet(1).NewRunner(1)
	out := r.Forward(tensor.FromSlice(in, 1, 8))
	return append([]float32(nil), out.Data()...)
}

// fakeBackend is a scriptable replica for deterministic policy and
// health tests.
type fakeBackend struct {
	calls atomic.Int64
	mu    sync.Mutex
	err   error         // returned instead of a result when non-nil
	delay time.Duration // simulated service time
	gate  chan struct{} // when non-nil, calls block until it closes
}

func (f *fakeBackend) setErr(err error) {
	f.mu.Lock()
	f.err = err
	f.mu.Unlock()
}

func (f *fakeBackend) Infer(app string, in []float32) ([]float32, error) {
	return f.InferCtx(context.Background(), app, in)
}

func (f *fakeBackend) InferCtx(ctx context.Context, app string, in []float32) ([]float32, error) {
	f.calls.Add(1)
	f.mu.Lock()
	err, delay, gate := f.err, f.delay, f.gate
	f.mu.Unlock()
	if gate != nil {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %v", service.ErrDeadlineExceeded, ctx.Err())
		}
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if err != nil {
		return nil, err
	}
	return []float32{1}, nil
}

func TestRouterAnswersMatchSingleServer(t *testing.T) {
	testutil.NoLeaks(t)
	rt := New(Config{Policy: RoundRobin})
	defer rt.Close()
	for i := 0; i < 3; i++ {
		_, addr := startReplica(t, service.AppConfig{BatchInstances: 4})
		if err := rt.AddAddr(fmt.Sprintf("r%d", i), addr, nil); err != nil {
			t.Fatal(err)
		}
	}
	in := []float32{1, 0, -1, 2, 0.5, 0, 0, 1}
	want := refOutput(t, in)
	// Every replica must produce the identical answer as routing cycles.
	for i := 0; i < 9; i++ {
		out, err := rt.Infer("tiny", in)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if math.Abs(float64(out[j]-want[j])) > 1e-6 {
				t.Fatalf("query %d: out[%d]=%v want %v", i, j, out[j], want[j])
			}
		}
	}
	for _, snap := range rt.Stats() {
		if snap.Stats.Sent != 3 || snap.Stats.OK != 3 {
			t.Fatalf("round-robin skew: %s got %s, want sent=3 ok=3", snap.ID, snap.Stats)
		}
	}
	if lat := rt.RouteLatency(); lat.Count != 9 {
		t.Fatalf("route stage recorded %d samples, want 9", lat.Count)
	}
}

// loadReplica pins synthetic outstanding load on one registered
// replica (tests run in-package, so they reach the counter the
// load-aware policies read).
func loadReplica(rt *Router, id string, n int64) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, r := range rt.replicas {
		if r.id == id {
			r.outstanding.Add(n)
			return
		}
	}
	panic("unknown replica " + id)
}

func TestRouterPerAppPolicies(t *testing.T) {
	a, b := &fakeBackend{}, &fakeBackend{}
	rt := New(Config{
		Policy:    RoundRobin,
		AppPolicy: map[string]Policy{"busy": LeastOutstanding},
	})
	defer rt.Close()
	rt.AddBackend("a", a)
	rt.AddBackend("b", b)
	// Pin load on a: the "busy" app's least-outstanding policy must
	// always pick the idle b, while the default round-robin app keeps
	// alternating regardless of load.
	loadReplica(rt, "a", 5)
	for i := 0; i < 8; i++ {
		if _, err := rt.Infer("busy", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := b.calls.Load(); got != 8 {
		t.Fatalf("least-outstanding sent %d of 8 queries to the idle replica", got)
	}
	aBase := a.calls.Load()
	for i := 0; i < 8; i++ {
		if _, err := rt.Infer("other", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.calls.Load() - aBase; got != 4 {
		t.Fatalf("round-robin app sent %d of 8 queries to the loaded replica, want 4", got)
	}
}

func TestRouterPowerOfTwoPrefersIdleReplica(t *testing.T) {
	busy, idle := &fakeBackend{}, &fakeBackend{}
	rt := New(Config{Policy: PowerOfTwo})
	defer rt.Close()
	rt.AddBackend("busy", busy)
	rt.AddBackend("idle", idle)
	loadReplica(rt, "busy", 5)
	const queries = 32
	for i := 0; i < queries; i++ {
		if _, err := rt.Infer("tiny", nil); err != nil {
			t.Fatal(err)
		}
	}
	// p2c compares the two sampled replicas' outstanding counts; with
	// one replica pinned busy, every sample that sees both replicas
	// picks the idle one, so the idle replica must take the clear
	// majority (sampling the busy replica twice is the only leak).
	if got := idle.calls.Load(); got < queries*3/4 {
		t.Fatalf("power-of-two sent only %d of %d queries to the idle replica", got, queries)
	}
	if busy.calls.Load()+idle.calls.Load() != queries {
		t.Fatal("lost attempts")
	}
}

func TestRouterRetriesRetryableAndSucceeds(t *testing.T) {
	bad, good := &fakeBackend{}, &fakeBackend{}
	bad.setErr(fmt.Errorf("%w: replica draining", service.ErrShuttingDown))
	rt := New(Config{Policy: RoundRobin})
	defer rt.Close()
	rt.AddBackend("bad", bad)
	rt.AddBackend("good", good)
	for i := 0; i < 6; i++ {
		if _, err := rt.Infer("tiny", nil); err != nil {
			t.Fatalf("query %d failed despite a healthy replica: %v", i, err)
		}
	}
	stats := rt.Stats()
	if stats[1].Stats.OK != 6 {
		t.Fatalf("healthy replica answered %d of 6", stats[1].Stats.OK)
	}
	if stats[0].Stats.Failures == 0 {
		t.Fatal("draining replica's failures were not recorded")
	}
}

func TestRouterMarksDownAfterConsecutiveFailures(t *testing.T) {
	bad, good := &fakeBackend{}, &fakeBackend{}
	bad.setErr(fmt.Errorf("%w: boom", service.ErrTransport))
	rt := New(Config{
		Policy: RoundRobin,
		Health: HealthConfig{FailureThreshold: 3, ProbeInterval: time.Hour},
	})
	defer rt.Close()
	rt.AddBackend("bad", bad)
	rt.AddBackend("good", good)
	for i := 0; i < 12; i++ {
		if _, err := rt.Infer("tiny", nil); err != nil {
			t.Fatal(err)
		}
	}
	stats := rt.Stats()
	if stats[0].Healthy {
		t.Fatal("failing replica still marked healthy after threshold")
	}
	if stats[0].Stats.MarkDowns != 1 {
		t.Fatalf("markdowns = %d, want 1", stats[0].Stats.MarkDowns)
	}
	// Once down (probe interval: 1h), the bad replica receives nothing.
	badCalls := bad.calls.Load()
	for i := 0; i < 8; i++ {
		if _, err := rt.Infer("tiny", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := bad.calls.Load(); got != badCalls {
		t.Fatalf("marked-down replica still received %d queries", got-badCalls)
	}
}

func TestRouterProbeRecoveryWithExponentialBackoff(t *testing.T) {
	flaky, good := &fakeBackend{}, &fakeBackend{}
	flaky.setErr(fmt.Errorf("%w: down", service.ErrTransport))
	const probe = 20 * time.Millisecond
	rt := New(Config{
		Policy: RoundRobin,
		Health: HealthConfig{FailureThreshold: 1, ProbeInterval: probe, MaxProbeInterval: time.Second},
	})
	defer rt.Close()
	rt.AddBackend("flaky", flaky)
	rt.AddBackend("good", good)
	// One failure marks it down (threshold 1).
	for i := 0; i < 2; i++ {
		if _, err := rt.Infer("tiny", nil); err != nil {
			t.Fatal(err)
		}
	}
	if rt.Stats()[0].Healthy {
		t.Fatal("replica not marked down")
	}
	// After the first interval a single probe goes through, fails, and
	// doubles the back-off.
	time.Sleep(probe + 10*time.Millisecond)
	for i := 0; i < 4; i++ {
		rt.Infer("tiny", nil)
	}
	s := rt.Stats()[0].Stats
	if s.Probes != 1 {
		t.Fatalf("probes = %d, want exactly 1 per expired interval", s.Probes)
	}
	if s.MarkDowns != 2 {
		t.Fatalf("markdowns = %d, want 2 (initial + failed probe)", s.MarkDowns)
	}
	// Heal the replica; after the doubled interval the next probe
	// succeeds and traffic returns.
	flaky.setErr(nil)
	time.Sleep(2*probe + 10*time.Millisecond)
	for i := 0; i < 6; i++ {
		if _, err := rt.Infer("tiny", nil); err != nil {
			t.Fatal(err)
		}
	}
	if !rt.Stats()[0].Healthy {
		t.Fatal("replica did not recover after a successful probe")
	}
	if ok := rt.Stats()[0].Stats.OK; ok == 0 {
		t.Fatal("recovered replica received no traffic")
	}
}

// TestRouterProbeReleasedOnTerminalError guards the probe slot against
// leaking: a recovery probe that ends in a NON-retryable error must
// still release the replica's single probe slot. A server-answered
// application error proves the replica alive and recovers it; a
// deadline is inconclusive and re-marks it down with back-off — but
// either way a later probe must remain possible, or one unlucky probe
// permanently ejects the replica from the fleet.
func TestRouterProbeReleasedOnTerminalError(t *testing.T) {
	const probe = 20 * time.Millisecond
	newFleet := func(t *testing.T) (*fakeBackend, *Router) {
		t.Helper()
		bad, good := &fakeBackend{}, &fakeBackend{}
		bad.setErr(fmt.Errorf("%w: down", service.ErrTransport))
		rt := New(Config{
			Policy: RoundRobin,
			Health: HealthConfig{FailureThreshold: 1, ProbeInterval: probe, MaxProbeInterval: time.Second},
		})
		t.Cleanup(rt.Close)
		rt.AddBackend("bad", bad)
		rt.AddBackend("good", good)
		for i := 0; i < 2; i++ {
			if _, err := rt.Infer("tiny", nil); err != nil {
				t.Fatal(err)
			}
		}
		if rt.Stats()[0].Healthy {
			t.Fatal("replica not marked down")
		}
		return bad, rt
	}

	t.Run("server-answered error recovers the replica", func(t *testing.T) {
		bad, rt := newFleet(t)
		// The probe lands while the replica answers a deterministic
		// application error: the error surfaces to its unlucky caller,
		// but the answer itself proves the replica alive.
		bad.setErr(errors.New("service: server error: bad payload"))
		time.Sleep(probe + 10*time.Millisecond)
		var sawAppErr bool
		for i := 0; i < 4; i++ {
			if _, err := rt.Infer("tiny", nil); err != nil {
				sawAppErr = true
			}
		}
		if !sawAppErr {
			t.Fatal("probe never reached the erroring replica")
		}
		if !rt.Stats()[0].Healthy {
			t.Fatal("server-answered probe left the replica down (probe slot leaked)")
		}
	})

	t.Run("deadline re-marks down and allows a re-probe", func(t *testing.T) {
		bad, rt := newFleet(t)
		// The probe times out: inconclusive liveness evidence, so the
		// replica goes back down with doubled back-off — not wedged
		// with its probe slot held forever.
		bad.setErr(fmt.Errorf("%w: no result before deadline", service.ErrDeadlineExceeded))
		time.Sleep(probe + 10*time.Millisecond)
		for i := 0; i < 4; i++ {
			rt.Infer("tiny", nil)
		}
		s := rt.Stats()[0]
		if s.Healthy {
			t.Fatal("inconclusive probe marked the replica healthy")
		}
		if s.Stats.Probes != 1 {
			t.Fatalf("probes = %d, want 1", s.Stats.Probes)
		}
		if s.Stats.MarkDowns != 2 {
			t.Fatalf("markdowns = %d, want 2 (initial + inconclusive probe)", s.Stats.MarkDowns)
		}
		// After the doubled interval the slot must be claimable again;
		// a healed replica then recovers via its second probe.
		bad.setErr(nil)
		time.Sleep(2*probe + 10*time.Millisecond)
		for i := 0; i < 6; i++ {
			if _, err := rt.Infer("tiny", nil); err != nil {
				t.Fatal(err)
			}
		}
		s = rt.Stats()[0]
		if s.Stats.Probes != 2 {
			t.Fatalf("probes = %d, want 2 (slot released for re-probe)", s.Stats.Probes)
		}
		if !s.Healthy {
			t.Fatal("replica never recovered after a terminal-error probe")
		}
	})
}

func TestRouterSlowResponsesTripMarkDown(t *testing.T) {
	slow := &fakeBackend{}
	slow.mu.Lock()
	slow.delay = 30 * time.Millisecond
	slow.mu.Unlock()
	fast := &fakeBackend{}
	rt := New(Config{
		Policy: RoundRobin,
		Health: HealthConfig{
			FailureThreshold: 2,
			SlowThreshold:    5 * time.Millisecond,
			ProbeInterval:    time.Hour,
		},
	})
	defer rt.Close()
	rt.AddBackend("slow", slow)
	rt.AddBackend("fast", fast)
	for i := 0; i < 8; i++ {
		if _, err := rt.Infer("tiny", nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := rt.Stats()[0]
	if snap.Healthy {
		t.Fatal("persistently slow replica was never marked down")
	}
	if snap.Stats.Slow < 2 {
		t.Fatalf("slow signals = %d, want ≥ threshold", snap.Stats.Slow)
	}
}

func TestRouterDeadlineIsTerminal(t *testing.T) {
	a, b := &fakeBackend{}, &fakeBackend{}
	gate := make(chan struct{})
	defer close(gate)
	a.mu.Lock()
	a.gate = gate
	a.mu.Unlock()
	b.mu.Lock()
	b.gate = gate
	b.mu.Unlock()
	rt := New(Config{Policy: RoundRobin})
	defer rt.Close()
	rt.AddBackend("a", a)
	rt.AddBackend("b", b)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := rt.InferCtx(ctx, "tiny", nil)
	if !errors.Is(err, service.ErrDeadlineExceeded) {
		t.Fatalf("got %v, want ErrDeadlineExceeded", err)
	}
	// The deadline belongs to the query: exactly one attempt, no retry
	// burning the other replica.
	if total := a.calls.Load() + b.calls.Load(); total != 1 {
		t.Fatalf("deadline expiry was retried: %d attempts", total)
	}
}

func TestRouterApplicationErrorIsTerminal(t *testing.T) {
	a, b := &fakeBackend{}, &fakeBackend{}
	a.setErr(errors.New("service: unknown application \"nope\""))
	b.setErr(errors.New("service: unknown application \"nope\""))
	rt := New(Config{Policy: RoundRobin})
	defer rt.Close()
	rt.AddBackend("a", a)
	rt.AddBackend("b", b)
	if _, err := rt.Infer("nope", nil); err == nil {
		t.Fatal("expected the application error through")
	}
	if total := a.calls.Load() + b.calls.Load(); total != 1 {
		t.Fatalf("deterministic app error was retried: %d attempts", total)
	}
	// App errors are not health signals: both replicas stay routable.
	for _, snap := range rt.Stats() {
		if !snap.Healthy {
			t.Fatalf("app error marked %s down", snap.ID)
		}
	}
}

func TestRouterAllReplicasDownSurfacesLastError(t *testing.T) {
	a, b := &fakeBackend{}, &fakeBackend{}
	a.setErr(fmt.Errorf("%w: a", service.ErrOverloaded))
	b.setErr(fmt.Errorf("%w: b", service.ErrOverloaded))
	rt := New(Config{Policy: RoundRobin, MaxAttempts: 4})
	defer rt.Close()
	rt.AddBackend("a", a)
	rt.AddBackend("b", b)
	_, err := rt.Infer("tiny", nil)
	if err == nil {
		t.Fatal("expected failure with every replica overloaded")
	}
	if !errors.Is(err, service.ErrOverloaded) {
		t.Fatalf("exhaustion error %v does not wrap the last cause", err)
	}
	if total := a.calls.Load() + b.calls.Load(); total != 4 {
		t.Fatalf("attempts = %d, want MaxAttempts=4", total)
	}
}

func TestRouterNoBackends(t *testing.T) {
	rt := New(Config{})
	defer rt.Close()
	if _, err := rt.Infer("tiny", nil); err == nil {
		t.Fatal("expected an error with no backends")
	}
}

func TestRouterDuplicateBackendID(t *testing.T) {
	rt := New(Config{})
	defer rt.Close()
	if err := rt.AddBackend("a", &fakeBackend{}); err != nil {
		t.Fatal(err)
	}
	if err := rt.AddBackend("a", &fakeBackend{}); err == nil {
		t.Fatal("expected duplicate-ID error")
	}
}

func TestRouterClosedRefusesQueries(t *testing.T) {
	rt := New(Config{})
	rt.AddBackend("a", &fakeBackend{})
	rt.Close()
	if _, err := rt.Infer("tiny", nil); !errors.Is(err, service.ErrShuttingDown) {
		t.Fatalf("post-close Infer returned %v, want ErrShuttingDown", err)
	}
	if err := rt.AddBackend("b", &fakeBackend{}); !errors.Is(err, service.ErrShuttingDown) {
		t.Fatalf("post-close AddBackend returned %v, want ErrShuttingDown", err)
	}
	rt.Close() // idempotent
}

// TestRouterKillReplicaMidRunZeroLostQueries is the acceptance test:
// concurrent clients drive a three-replica TCP fleet while one replica
// is killed mid-run. Zero queries may be lost — every one either
// succeeds (directly or via retry on a surviving replica) or fails
// with a terminal lifecycle error it can account for.
func TestRouterKillReplicaMidRunZeroLostQueries(t *testing.T) {
	testutil.NoLeaks(t)
	rt := New(Config{
		Policy: RoundRobin,
		Health: HealthConfig{FailureThreshold: 2, ProbeInterval: 200 * time.Millisecond},
	})
	defer rt.Close()
	var victim *service.Server
	for i := 0; i < 3; i++ {
		s, addr := startReplica(t, service.AppConfig{
			BatchInstances: 4, Workers: 2,
		})
		if i == 0 {
			victim = s
		}
		if err := rt.AddAddr(fmt.Sprintf("r%d", i), addr, nil); err != nil {
			t.Fatal(err)
		}
	}
	in := []float32{1, 0, -1, 2, 0.5, 0, 0, 1}
	want := refOutput(t, in)

	const clients = 8
	var issued, ok, terminal atomic.Int64
	var unexplainedMu sync.Mutex
	var firstUnexplained error
	noteUnexplained := func(err error) {
		unexplainedMu.Lock()
		if firstUnexplained == nil {
			firstUnexplained = err
		}
		unexplainedMu.Unlock()
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				issued.Add(1)
				out, err := rt.Infer("tiny", in)
				switch {
				case err == nil:
					for j := range want {
						if math.Abs(float64(out[j]-want[j])) > 1e-6 {
							noteUnexplained(fmt.Errorf("wrong answer after failover"))
						}
					}
					ok.Add(1)
				case errors.Is(err, service.ErrDeadlineExceeded),
					errors.Is(err, service.ErrShuttingDown),
					errors.Is(err, service.ErrOverloaded),
					errors.Is(err, service.ErrTransport):
					// Terminal lifecycle outcome: accounted, not lost.
					terminal.Add(1)
				default:
					terminal.Add(1)
					noteUnexplained(err)
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	victim.Close() // kill one replica mid-run
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	if firstUnexplained != nil {
		t.Fatalf("unexplained failure: %v", firstUnexplained)
	}
	if got := ok.Load() + terminal.Load(); got != issued.Load() {
		t.Fatalf("lost queries: issued %d, accounted %d", issued.Load(), got)
	}
	if ok.Load() == 0 {
		t.Fatal("no query succeeded")
	}
	// The fleet kept answering after the kill: with two survivors and
	// retry, failures should be rare — and the victim must be marked
	// down by run end.
	stats := rt.Stats()
	if stats[0].Healthy {
		t.Fatal("killed replica still marked healthy")
	}
	if stats[1].Stats.OK == 0 || stats[2].Stats.OK == 0 {
		t.Fatalf("survivors did not absorb the load: %v / %v", stats[1].Stats, stats[2].Stats)
	}
	t.Logf("issued=%d ok=%d terminal=%d", issued.Load(), ok.Load(), terminal.Load())
}

// TestRouterOverloadIsBackpressureNotMarkdown: an overload answer is
// proof of life, not a failure — even with FailureThreshold 1 the
// shedding replica stays healthy, accrues backpressure instead of
// mark-downs, and load-based policies steer new work to its peers.
func TestRouterOverloadIsBackpressureNotMarkdown(t *testing.T) {
	testutil.NoLeaks(t)
	shedding := &fakeBackend{}
	shedding.setErr(fmt.Errorf("%w: admission rejected", service.ErrOverloaded))
	healthy := &fakeBackend{}
	rt := New(Config{Policy: LeastOutstanding, Health: HealthConfig{FailureThreshold: 1}})
	defer rt.Close()
	if err := rt.AddBackend("shedding", shedding); err != nil {
		t.Fatal(err)
	}
	if err := rt.AddBackend("healthy", healthy); err != nil {
		t.Fatal(err)
	}

	const queries = 5
	for i := 0; i < queries; i++ {
		if _, err := rt.Infer("tiny", make([]float32, 8)); err != nil {
			t.Fatalf("query %d failed despite a healthy peer: %v", i, err)
		}
	}

	stats := rt.Stats()
	shed := stats[0]
	if !shed.Healthy {
		t.Fatal("overload answers marked the replica down")
	}
	if shed.Stats.MarkDowns != 0 || shed.Stats.Failures != 0 {
		t.Fatalf("overload leaked into failure machinery: %+v", shed.Stats)
	}
	if shed.Stats.Backpressure == 0 || shed.Pressure == 0 {
		t.Fatalf("backpressure not recorded: %+v", shed)
	}
	// The first query tried the shedding replica (equal loads, first in
	// registration order) and retried; the pressure penalty then steered
	// every later query straight to the healthy peer.
	if got := shedding.calls.Load(); got != 1 {
		t.Fatalf("shedding replica saw %d calls, want exactly 1", got)
	}
	if got := healthy.calls.Load(); got != queries {
		t.Fatalf("healthy replica served %d, want %d", got, queries)
	}
}

// TestRouterOverloadRecoversProbingReplica: a recovery probe answered
// with overload proves the replica is alive — the probe slot must be
// released and the replica recovered, not re-marked down.
func TestRouterOverloadRecoversProbingReplica(t *testing.T) {
	testutil.NoLeaks(t)
	flaky := &fakeBackend{}
	flaky.setErr(fmt.Errorf("%w: conn reset", service.ErrTransport))
	rt := New(Config{
		MaxAttempts: 1,
		Health:      HealthConfig{FailureThreshold: 1, ProbeInterval: 5 * time.Millisecond},
	})
	defer rt.Close()
	if err := rt.AddBackend("flaky", flaky); err != nil {
		t.Fatal(err)
	}

	// Transport failure marks it down.
	if _, err := rt.Infer("tiny", make([]float32, 8)); err == nil {
		t.Fatal("transport error did not surface")
	}
	if rt.Stats()[0].Healthy {
		t.Fatal("replica not marked down after transport failure")
	}

	// After the probe interval the next query is the recovery probe; it
	// answers with overload → alive → healthy again.
	flaky.setErr(fmt.Errorf("%w: queue full", service.ErrOverloaded))
	time.Sleep(10 * time.Millisecond)
	if _, err := rt.Infer("tiny", make([]float32, 8)); !errors.Is(err, service.ErrOverloaded) {
		t.Fatalf("probe returned %v, want ErrOverloaded", err)
	}
	if !rt.Stats()[0].Healthy {
		t.Fatal("overload-answered probe left the replica down")
	}

	// And the replica serves again once it stops shedding.
	flaky.setErr(nil)
	if _, err := rt.Infer("tiny", make([]float32, 8)); err != nil {
		t.Fatalf("recovered replica failed: %v", err)
	}
}

// TestReplicaPressureDecays: each fast success halves the accumulated
// penalty back to zero.
func TestReplicaPressureDecays(t *testing.T) {
	cfg := HealthConfig{}.withDefaults()
	r := &replica{id: "x"}
	for i := 0; i < 4; i++ {
		r.onBackpressure(cfg, "")
	}
	if p := r.pressure.Load(); p != 4*pressureStep {
		t.Fatalf("pressure = %d after 4 overloads, want %d", p, 4*pressureStep)
	}
	for i := 0; i < 10 && r.pressure.Load() > 0; i++ {
		r.onSuccess(cfg, false, "")
	}
	if p := r.pressure.Load(); p != 0 {
		t.Fatalf("pressure = %d after successes, want 0", p)
	}
	if r.load() != 0 {
		t.Fatalf("load = %d on an idle replica", r.load())
	}
}

// TestRouterJournalsHealthAndCanaryTransitions: mark-down (with its
// cause), probe recovery, and split changes each land in the attached
// event journal.
func TestRouterJournalsHealthAndCanaryTransitions(t *testing.T) {
	flaky, good := &fakeBackend{}, &fakeBackend{}
	flaky.setErr(fmt.Errorf("%w: conn reset", service.ErrTransport))
	const probe = 20 * time.Millisecond
	rt := New(Config{
		Policy: RoundRobin,
		Health: HealthConfig{FailureThreshold: 1, ProbeInterval: probe, MaxProbeInterval: time.Second},
	})
	defer rt.Close()
	j := events.New(64)
	rt.SetJournal(j)
	rt.AddBackend("flaky", flaky)
	rt.AddBackend("good", good)

	for i := 0; i < 2; i++ {
		rt.Infer("tiny", nil)
	}
	downs := j.Filter(events.KindMarkDown, 0)
	if len(downs) != 1 {
		t.Fatalf("markdown events = %d, want 1", len(downs))
	}
	if !strings.Contains(downs[0].Msg, "flaky") || !strings.Contains(downs[0].Msg, "transport failure") {
		t.Errorf("markdown msg = %q, want replica id and cause", downs[0].Msg)
	}

	flaky.setErr(nil)
	time.Sleep(probe + 10*time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for len(j.Filter(events.KindRecover, 0)) == 0 && time.Now().Before(deadline) {
		rt.Infer("tiny", nil)
		time.Sleep(time.Millisecond)
	}
	recs := j.Filter(events.KindRecover, 0)
	if len(recs) == 0 {
		t.Fatal("no recovery event journaled")
	}
	if !strings.Contains(recs[0].Msg, "flaky recovered") {
		t.Errorf("recovery msg = %q", recs[0].Msg)
	}

	// Canary lifecycle: set, promote, roll back — three journal entries.
	if err := rt.SetSplit("tiny", SplitTarget{Target: "tiny@v1", Weight: 9}, SplitTarget{Target: "tiny@v2", Weight: 1}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Promote("tiny", "tiny@v2"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Rollback("tiny"); err != nil {
		t.Fatal(err)
	}
	cs := j.Filter(events.KindCanary, 0)
	if len(cs) != 3 {
		t.Fatalf("canary events = %d, want 3", len(cs))
	}
	if !strings.Contains(cs[0].Msg, "tiny@v2:10%") ||
		!strings.Contains(cs[1].Msg, "promoted") ||
		!strings.Contains(cs[2].Msg, "rolled back → tiny@v1:90% tiny@v2:10%") {
		t.Errorf("canary timeline = %q, %q, %q", cs[0].Msg, cs[1].Msg, cs[2].Msg)
	}
}
