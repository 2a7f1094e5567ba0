package router

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"djinn/internal/service"
	"djinn/internal/testutil"
)

// TestRouterStressClientsCloseMarkdown is the race-focused stress run:
// many clients fan queries through the router while one replica is
// killed mid-run (driving the transport-failure → mark-down → probe
// machinery), stats readers poll concurrently, and finally the router
// itself is closed under the remaining clients. Under -race this
// exercises every lock-order pairing the router has; the functional
// assertion is that every outcome is one of the classified sentinels —
// nothing panics, nothing hangs, nothing surfaces an unclassified
// error.
func TestRouterStressClientsCloseMarkdown(t *testing.T) {
	testutil.NoLeaks(t)
	cfg := service.AppConfig{BatchInstances: 8, Workers: 1}
	victim, victimAddr := startReplica(t, cfg)
	_, addrB := startReplica(t, cfg)
	_, addrC := startReplica(t, cfg)

	rt := New(Config{
		Policy:      LeastOutstanding,
		MaxAttempts: 3,
		Health:      HealthConfig{FailureThreshold: 2, ProbeInterval: 5 * time.Millisecond},
	})
	for id, addr := range map[string]string{"a": victimAddr, "b": addrB, "c": addrC} {
		if err := rt.AddAddr(id, addr, service.DefaultDial); err != nil {
			t.Fatal(err)
		}
	}

	var (
		ok           atomic.Int64
		classified   atomic.Int64
		unclassified atomic.Int64
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := make([]float32, 8)
			in[0] = float32(w)
			for {
				select {
				case <-stop:
					return
				default:
				}
				ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
				_, err := rt.InferCtx(ctx, "tiny", in)
				cancel()
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, service.ErrDeadlineExceeded),
					errors.Is(err, service.ErrShuttingDown),
					errors.Is(err, service.ErrOverloaded),
					errors.Is(err, service.ErrTransport):
					classified.Add(1)
				default:
					unclassified.Add(1)
					t.Errorf("unclassified error: %v", err)
				}
			}
		}(w)
	}
	// Concurrent stats readers: snapshots must be safe mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, b := range rt.Stats() {
				_ = b.Stats.String()
			}
			_ = rt.RouteLatency()
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(60 * time.Millisecond)
	victim.Close() // mark-down path under live load
	time.Sleep(120 * time.Millisecond)
	rt.Close() // router shutdown under live load
	time.Sleep(30 * time.Millisecond)
	close(stop)
	wg.Wait()

	if ok.Load() == 0 {
		t.Fatal("no queries succeeded before the shutdowns")
	}
	if unclassified.Load() != 0 {
		t.Fatalf("%d unclassified errors", unclassified.Load())
	}
}

// serialBackend models one single-worker replica: a mutex serialises
// queries and each holds the worker for a fixed service time. Sleeping
// rather than computing makes each replica a genuine unit of capacity
// on any host, so fleet throughput must scale with replica count.
type serialBackend struct {
	mu      sync.Mutex
	service time.Duration
}

func (s *serialBackend) Infer(app string, in []float32) ([]float32, error) {
	return s.InferCtx(context.Background(), app, in)
}

func (s *serialBackend) InferCtx(ctx context.Context, app string, in []float32) ([]float32, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	time.Sleep(s.service)
	return make([]float32, 4), nil
}

// TestRouterThroughputScalesWithReplicas is the scaling proof: with
// replicas serialised at a fixed service time, a fleet of n serves ~n
// times the queries of a fleet of one in the same wall-clock window.
func TestRouterThroughputScalesWithReplicas(t *testing.T) {
	testutil.NoLeaks(t)
	const serviceTime = 5 * time.Millisecond
	run := func(replicas int) int64 {
		rt := New(Config{Policy: LeastOutstanding})
		defer rt.Close()
		for i := 0; i < replicas; i++ {
			if err := rt.AddBackend(string(rune('a'+i)), &serialBackend{service: serviceTime}); err != nil {
				t.Fatal(err)
			}
		}
		var done atomic.Int64
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				in := make([]float32, 8)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := rt.Infer("tiny", in); err != nil {
						t.Errorf("infer: %v", err)
						return
					}
					done.Add(1)
				}
			}()
		}
		time.Sleep(200 * time.Millisecond)
		close(stop)
		wg.Wait()
		return done.Load()
	}

	one := run(1)
	two := run(2)
	four := run(4)
	t.Logf("completed in 200ms: 1 replica %d, 2 replicas %d, 4 replicas %d", one, two, four)
	if one == 0 {
		t.Fatal("single replica served nothing")
	}
	// Ideal ratios are 2.0 each step; 1.5 leaves headroom for scheduler
	// jitter while still rejecting a flat curve.
	if float64(two) < 1.5*float64(one) {
		t.Errorf("2 replicas served %d, want >= 1.5x the single replica's %d", two, one)
	}
	if float64(four) < 1.5*float64(two) {
		t.Errorf("4 replicas served %d, want >= 1.5x the pair's %d", four, two)
	}
}
