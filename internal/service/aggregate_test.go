package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"djinn/internal/nn"
	"djinn/internal/tensor"
	"djinn/internal/testutil"
)

// inproc registers the tiny test net on an in-process server with the
// given aggregation config; no TCP involved, so these tests exercise
// the aggregator and worker paths directly.
func inproc(t *testing.T, cfg AppConfig) *Server {
	t.Helper()
	testutil.NoLeaks(t)
	s := NewServer()
	s.SetLogger(silence)
	if err := s.Register("tiny", testNet(1), cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// inferN issues n concurrent single-instance queries and blocks until
// every one has a response, failing the test on any error.
func inferN(t *testing.T, s *Server, n int) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := make([]float32, 8)
			in[0] = float32(i)
			out, err := s.Infer("tiny", in)
			if err != nil {
				t.Errorf("query %d: %v", i, err)
				return
			}
			if len(out) != 4 {
				t.Errorf("query %d: %d outputs, want 4", i, len(out))
			}
		}(i)
	}
	wg.Wait()
}

// gateLayer is an identity layer the test drives by hand: every forward
// pass reports its batch size on entered and then blocks until the test
// sends on release, so "the worker is busy" is a state the test holds
// for as long as it needs, not a duration it hopes outlasts a race.
type gateLayer struct {
	entered chan int // unbuffered: the worker waits for the test to look
	release chan struct{}
	quit    chan struct{} // closed at test end: a failed test must not wedge Close
}

func (l *gateLayer) Name() string                     { return "gate" }
func (l *gateLayer) Kind() string                     { return "gate" }
func (l *gateLayer) OutShape(in []int) ([]int, error) { return in, nil }
func (l *gateLayer) Forward(ctx *nn.Ctx, in, out *tensor.Tensor) {
	copy(out.Data(), in.Data())
	select {
	case l.entered <- in.Dim(0):
	case <-l.quit:
		return
	}
	select {
	case <-l.release:
	case <-l.quit:
	}
}
func (l *gateLayer) Params() []*nn.Param                                     { return nil }
func (l *gateLayer) Kernels(in []int, batch int, ks []nn.Kernel) []nn.Kernel { return ks }

// gated is one app on an in-process server whose forward pass the test
// gates. Queries enter through enqueue, the aggregator's own inbox, so
// the test knows each one is queued when submit returns.
type gated struct {
	t     *testing.T
	s     *Server
	a     *app
	layer *gateLayer
	sent  []*request
}

func newGated(t *testing.T, cfg AppConfig) *gated {
	t.Helper()
	testutil.NoLeaks(t)
	layer := &gateLayer{entered: make(chan int), release: make(chan struct{}), quit: make(chan struct{})}
	s := NewServer()
	s.SetLogger(silence)
	if err := s.Register("gate", nn.NewNet("gate", nn.KindDNN, 8).Add(layer), cfg); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	t.Cleanup(func() { close(layer.quit) }) // runs first
	a, _ := s.app("gate")
	return &gated{t: t, s: s, a: a, layer: layer}
}

// submit enqueues one single-instance query whose payload names it, and
// returns the enqueue error (nil, or the MaxPending shed).
func (g *gated) submit() error {
	in := make([]float32, 8)
	in[0] = float32(len(g.sent))
	req := &request{ctx: context.Background(), in: in, instances: 1, enqueued: time.Now(), resp: make(chan result, 1)}
	if err := g.a.enqueue(req); err != nil {
		return err
	}
	g.sent = append(g.sent, req)
	return nil
}

// admitted submits n queries, each once the aggregator has taken the
// one before off the queue, so none is shed and all n are in the
// pending batch on return.
func (g *gated) admitted(n int) {
	g.t.Helper()
	for i := 0; i < n; i++ {
		if err := g.submit(); err != nil {
			g.t.Fatalf("submit: %v", err)
		}
		g.settle()
	}
}

// settle waits until the aggregator has emptied the queue into the
// pending batch. Only call it while the batch has room: at its cap the
// aggregator stops reading.
func (g *gated) settle() {
	g.t.Helper()
	for deadline := time.Now().Add(10 * time.Second); len(g.a.reqCh) > 0; runtime.Gosched() {
		if time.Now().After(deadline) {
			g.t.Fatal("aggregator stopped reading its queue")
		}
	}
}

// batch waits for the next forward pass, checks its size, and lets it
// finish.
func (g *gated) batch(want int) {
	g.t.Helper()
	g.hold(want)
	g.layer.release <- struct{}{}
}

// hold waits for the next forward pass and leaves its worker blocked.
func (g *gated) hold(want int) {
	g.t.Helper()
	select {
	case got := <-g.layer.entered:
		if got != want {
			g.t.Fatalf("batch of %d instances, want %d", got, want)
		}
	case <-time.After(10 * time.Second):
		g.t.Fatalf("no batch reached a worker (want one of %d)", want)
	}
}

// answers collects every submitted query's response — each has exactly
// one, and a successful one is the query's own payload back — and
// returns how many succeeded and how many the drain failed.
func (g *gated) answers() (ok, drained int) {
	g.t.Helper()
	for i, req := range g.sent {
		select {
		case res := <-req.resp:
			switch {
			case res.err == nil:
				if len(res.out) != 8 || res.out[0] != float32(i) {
					g.t.Errorf("query %d got %v, want its own payload back", i, res.out)
				}
				ok++
			case errors.Is(res.err, ErrShuttingDown):
				drained++
			default:
				g.t.Errorf("query %d: %v", i, res.err)
			}
		case <-time.After(10 * time.Second):
			g.t.Fatalf("query %d never answered", i)
		}
		if len(req.resp) != 0 {
			g.t.Errorf("query %d answered twice", i)
		}
	}
	return ok, drained
}

// TestAggregatorWorkConserving pins the batching rule with a forward
// pass the test gates: a pending batch goes to a worker the moment one
// is free, grows (up to the cap) only while none is, and waits on the
// timer only for the MinBatchInstances floor. Every window below that
// must not be waited on is an hour, so waiting on it fails the case.
func TestAggregatorWorkConserving(t *testing.T) {
	cases := []struct {
		name string
		cfg  AppConfig
		run  func(t *testing.T, g *gated)
		// expected counters once every query is answered
		ok, drained, batches, shed, timerArms int64
	}{
		{
			// An idle replica: each query leaves alone and at once, the
			// 64-instance cap and the window notwithstanding, and the
			// timer is never armed.
			name: "idle-batch-of-one",
			cfg:  AppConfig{BatchInstances: 64, BatchWindow: time.Hour, Workers: 2},
			run: func(t *testing.T, g *gated) {
				for i := 0; i < 3; i++ {
					g.admitted(1)
					g.batch(1)
				}
			},
			ok: 3, batches: 3,
		},
		{
			// Cross-request batching: what queues behind a busy worker
			// leaves as one batch when the worker comes free.
			name: "queued-behind-busy-worker-leave-together",
			cfg:  AppConfig{BatchInstances: 64, BatchWindow: time.Hour, Workers: 1},
			run: func(t *testing.T, g *gated) {
				g.admitted(1)
				g.hold(1)
				g.admitted(5)
				g.layer.release <- struct{}{}
				g.batch(5)
			},
			ok: 6, batches: 2,
		},
		{
			// At the cap the aggregator stops reading, the queue behind it
			// fills to MaxPending, and the next query is shed.
			name: "cap-reached-while-busy-sheds",
			cfg:  AppConfig{BatchInstances: 3, BatchWindow: time.Hour, Workers: 1, MaxPending: 2},
			run: func(t *testing.T, g *gated) {
				g.admitted(1)
				g.hold(1)
				g.admitted(3) // the pending batch, now at its cap
				for i := 0; i < 2; i++ {
					if err := g.submit(); err != nil {
						t.Fatalf("query %d behind a full batch: %v", i, err)
					}
				}
				if n := len(g.a.reqCh); n != 2 {
					t.Fatalf("%d queries queued behind a full batch, want 2: the aggregator kept admitting past the cap", n)
				}
				if err := g.submit(); !errors.Is(err, ErrOverloaded) {
					t.Fatalf("query past MaxPending returned %v, want ErrOverloaded", err)
				}
				g.layer.release <- struct{}{}
				g.hold(3)
				g.settle() // room again: the two queued queries move up
				g.layer.release <- struct{}{}
				g.batch(2)
			},
			ok: 6, batches: 3, shed: 1,
		},
		{
			// A floor holds the batch back from an idle worker until it
			// is met: the first forward pass the worker reports is all
			// three queries, not the first one.
			name: "floor-waits-for-floor",
			cfg:  AppConfig{BatchInstances: 8, MinBatchInstances: 3, BatchWindow: time.Hour, Workers: 1},
			run: func(t *testing.T, g *gated) {
				g.admitted(3)
				g.batch(3)
			},
			ok: 3, batches: 1, timerArms: 1,
		},
		{
			// ... or until the window has passed, the one wait the timer
			// still bounds.
			name: "floor-waits-for-window",
			cfg:  AppConfig{BatchInstances: 8, MinBatchInstances: 3, BatchWindow: time.Millisecond, Workers: 1},
			run: func(t *testing.T, g *gated) {
				g.admitted(1)
				g.batch(1)
			},
			ok: 1, batches: 1, timerArms: 1,
		},
		{
			// Close while the aggregator is offering a batch no worker is
			// free to take, with stragglers queued behind it: the offered
			// batch still runs, and every query is answered exactly once,
			// served or drained.
			name: "close-mid-hand-off",
			cfg:  AppConfig{BatchInstances: 4, BatchWindow: time.Hour, Workers: 1, MaxPending: 8},
			run: func(t *testing.T, g *gated) {
				g.admitted(1)
				g.hold(1)
				g.admitted(4)
				for i := 0; i < 3; i++ {
					if err := g.submit(); err != nil {
						t.Fatal(err)
					}
				}
				closed := make(chan struct{})
				go func() { defer close(closed); g.s.Close() }()
				// At its cap and with no worker to take the batch, the
				// aggregator can only wake on closing; once that is closed
				// the drain is the one way forward.
				<-g.a.closing
				g.layer.release <- struct{}{}
				g.batch(4)
				<-closed
			},
			ok: 5, drained: 3, batches: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := newGated(t, tc.cfg)
			tc.run(t, g)
			ok, drained := g.answers()
			g.s.Close() // a worker answers before it counts: let it finish
			st, _ := g.s.StatsFor("gate")
			if int64(ok) != tc.ok || int64(drained) != tc.drained {
				t.Errorf("%d served, %d drained; want %d, %d", ok, drained, tc.ok, tc.drained)
			}
			if st.Batches != tc.batches {
				t.Errorf("Batches = %d, want %d", st.Batches, tc.batches)
			}
			if st.Queries != int64(ok) || st.Instances != int64(ok) {
				t.Errorf("Queries = %d, Instances = %d, want %d served", st.Queries, st.Instances, ok)
			}
			if st.ShedAdmission != tc.shed || st.Errors != 0 || st.ShedExpired != 0 || st.Expired != 0 {
				t.Errorf("unexpected failures: %+v (want %d shed)", st, tc.shed)
			}
			if n := g.a.timerArms.Load(); n != tc.timerArms {
				t.Errorf("timer armed %d times, want %d", n, tc.timerArms)
			}
		})
	}
}

// TestAggregatorSaturatedClosedLoop: batching still happens when it
// should. Sixteen closed-loop clients drive one worker, and the test
// holds every forward pass until each client has a query outstanding, so
// the replica is saturated by construction. The clients a pass does not
// hold queue behind it and leave together: passes average half the
// clients (the bar leaves room for a client that has entered Infer but
// not yet enqueued when the pass is released).
func TestAggregatorSaturatedClosedLoop(t *testing.T) {
	const clients, rounds = 16, 20
	g := newGated(t, AppConfig{BatchInstances: 64, BatchWindow: time.Hour, Workers: 1})
	var started atomic.Int64 // queries the clients have begun
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
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
				started.Add(1)
				if _, err := g.s.Infer("gate", in); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for r := 0; ; r++ {
		if r == rounds {
			close(stop)
		}
		select {
		case <-g.layer.entered:
		case <-done:
			st, _ := g.s.StatsFor("gate")
			if st.Batches < rounds || st.AvgBatch() < 4 {
				t.Errorf("%d queries in %d batches, %.1f a batch; want at least 4 with %d clients on one held worker",
					st.Queries, st.Batches, st.AvgBatch(), clients)
			}
			if st.Errors != 0 || st.Shed() != 0 || st.Expired != 0 {
				t.Errorf("unexpected failures: %+v", st)
			}
			return
		case <-time.After(10 * time.Second):
			t.Fatal("no batch reached the worker")
		}
		// The one worker is held, so every earlier pass is booked: each
		// client has a query outstanding once the clients have begun that
		// many more than were answered.
		st, _ := g.s.StatsFor("gate")
		for deadline := time.Now().Add(10 * time.Second); r < rounds && started.Load() < st.Queries+clients; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d clients waiting", started.Load()-st.Queries, clients)
			}
		}
		g.layer.release <- struct{}{}
	}
}

// TestPlanPoolGrowsOnDemand: Register compiles one plan; a serially
// queried app reuses it; and k batches held in the forward pass at once
// leave min(k, Workers) plans, because a worker compiles only when every
// plan is checked out and the rest of the batches queue for a worker.
func TestPlanPoolGrowsOnDemand(t *testing.T) {
	const workers = 4
	for _, k := range []int{1, 2, workers, workers + 2} {
		t.Run(fmt.Sprintf("concurrent=%d", k), func(t *testing.T) {
			g := newGated(t, AppConfig{BatchInstances: 1, BatchWindow: time.Hour, Workers: workers, MaxPending: 8})
			built := func() int {
				g.a.plans.mu.Lock()
				defer g.a.plans.mu.Unlock()
				return g.a.plans.built
			}
			answered := func(req *request) {
				t.Helper()
				select {
				case res := <-req.resp:
					if res.err != nil {
						t.Fatal(res.err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("query never answered")
				}
			}
			if n := built(); n != 1 {
				t.Fatalf("Register compiled %d plans, want 1", n)
			}
			// Serial: each query is answered before the next is sent, as a
			// closed-loop client would.
			for i := 0; i < 3; i++ {
				g.admitted(1)
				g.batch(1)
				answered(g.sent[len(g.sent)-1])
			}
			if n := built(); n != 1 {
				t.Fatalf("serial queries built %d plans, want 1", n)
			}
			held := min(k, workers)
			for i := 0; i < held; i++ {
				g.admitted(1)
				g.hold(1)
			}
			for i := held; i < k; i++ {
				if err := g.submit(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < held; i++ {
				g.layer.release <- struct{}{}
			}
			for i := held; i < k; i++ {
				g.batch(1)
			}
			for _, req := range g.sent[3:] {
				answered(req)
			}
			if n := built(); n != held {
				t.Fatalf("%d concurrent batches on %d workers built %d plans, want %d", k, workers, n, held)
			}
		})
	}
}

// TestAggregatorUnderLoad: 16 concurrent queries race the aggregator and
// two workers, so batch sizes are timing-dependent; the invariants are
// not.
func TestAggregatorUnderLoad(t *testing.T) {
	s := inproc(t, AppConfig{BatchInstances: 4, Workers: 2})
	inferN(t, s, 16)
	st, _ := s.StatsFor("tiny")
	if st.Queries != 16 || st.Instances != 16 {
		t.Errorf("Queries = %d, Instances = %d, want 16", st.Queries, st.Instances)
	}
	if st.Batches < 4 || st.Batches > 16 {
		t.Errorf("Batches = %d, want in [4, 16]", st.Batches)
	}
	if st.Errors != 0 || st.Shed() != 0 || st.Expired != 0 {
		t.Errorf("unexpected failures: %+v", st)
	}
}

// TestStatsSnapshotNeverTears hammers StatsFor while queries complete
// and checks every snapshot is internally consistent. runBatch bumps
// batches, then instances, then queries; StatsFor loads them in the
// reverse order, so no interleaving can produce Queries > Instances or
// a processed instance with no batch. Before the ordered loads this
// could tear: a snapshot could read instances just before a batch's
// increment and queries just after it.
func TestStatsSnapshotNeverTears(t *testing.T) {
	s := inproc(t, AppConfig{BatchInstances: 3, BatchWindow: time.Millisecond, Workers: 2})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Vary instances per query (1..3) so multi-instance batches
			// widen the window between the instance and query increments.
			in := make([]float32, 8*(w%3+1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.Infer("tiny", in); err != nil {
					t.Errorf("infer: %v", err)
					return
				}
			}
		}(w)
	}

	deadline := time.Now().Add(200 * time.Millisecond)
	snapshots := 0
	for time.Now().Before(deadline) {
		st, ok := s.StatsFor("tiny")
		if !ok {
			t.Fatal("no stats for tiny")
		}
		if st.Queries > st.Instances {
			t.Fatalf("torn snapshot: Queries=%d > Instances=%d", st.Queries, st.Instances)
		}
		if st.Instances > 0 && st.Batches == 0 {
			t.Fatalf("torn snapshot: Instances=%d with Batches=0", st.Instances)
		}
		snapshots++
	}
	close(stop)
	wg.Wait()
	if snapshots == 0 {
		t.Fatal("no snapshots taken")
	}
	if st, _ := s.StatsFor("tiny"); st.Queries == 0 {
		t.Fatal("no queries completed during the run")
	}
}

// BenchmarkBatching measures the two regimes of the work-conserving
// rule on a model with a fixed 200µs per-pass cost and one worker: a
// lone closed-loop client (every query is a batch of one and pays no
// wait) and sixteen (queries pile up behind the busy worker and leave in
// batches, so ns/op falls well below the per-pass cost). avg_batch is
// the instances per forward pass.
func BenchmarkBatching(b *testing.B) {
	for _, bc := range []struct {
		name    string
		clients int
	}{{"idle", 1}, {"saturated", 16}} {
		b.Run(bc.name, func(b *testing.B) {
			s := NewServer()
			s.SetLogger(silence)
			defer s.Close()
			if err := s.Register("slow", slowNet(200*time.Microsecond), AppConfig{BatchInstances: 64, Workers: 1}); err != nil {
				b.Fatal(err)
			}
			b.SetParallelism(bc.clients) // × GOMAXPROCS goroutines
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				payload := make([]float32, 8)
				for pb.Next() {
					if _, err := s.Infer("slow", payload); err != nil {
						b.Error(err)
						return
					}
				}
			})
			st, _ := s.StatsFor("slow")
			b.ReportMetric(st.AvgBatch(), "avg_batch")
		})
	}
}
