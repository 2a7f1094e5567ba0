package service

import (
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"djinn/internal/nn"
	"djinn/internal/tensor"
)

func listen(t *testing.T) (net.Listener, error) {
	t.Helper()
	return net.Listen("tcp", "127.0.0.1:0")
}

// slowLayer is an identity layer whose forward pass sleeps — the
// injected "slow worker" the lifecycle tests observe queue-wait against.
type slowLayer struct{ delay time.Duration }

func (l *slowLayer) Name() string                     { return "slow" }
func (l *slowLayer) Kind() string                     { return "slow" }
func (l *slowLayer) OutShape(in []int) ([]int, error) { return in, nil }
func (l *slowLayer) Forward(ctx *nn.Ctx, in, out *tensor.Tensor) {
	time.Sleep(l.delay)
	copy(out.Data(), in.Data())
}
func (l *slowLayer) Params() []*nn.Param                                     { return nil }
func (l *slowLayer) Kernels(in []int, batch int, ks []nn.Kernel) []nn.Kernel { return ks }

// panicLayer fails every forward pass, standing in for a wedged or
// buggy model implementation.
type panicLayer struct{ slowLayer }

func (l *panicLayer) Forward(ctx *nn.Ctx, in, out *tensor.Tensor) {
	panic("injected model fault")
}

func slowNet(delay time.Duration) *nn.Net {
	return nn.NewNet("slow", nn.KindDNN, 8).Add(&slowLayer{delay: delay})
}

func TestExpiredContextRejectedBeforeForward(t *testing.T) {
	s := NewServer()
	s.SetLogger(silence)
	defer s.Close()
	if err := s.Register("slow", slowNet(5*time.Millisecond), AppConfig{
		BatchInstances: 1, Workers: 1,
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.InferCtx(ctx, "slow", make([]float32, 8))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired context returned %v, want ErrDeadlineExceeded", err)
	}
	st, _ := s.StatsFor("slow")
	if st.Expired != 1 {
		t.Fatalf("expired counter %d, want 1", st.Expired)
	}
	if st.Batches != 0 {
		t.Fatalf("expired query occupied %d forward passes", st.Batches)
	}
	if st.Errors != 0 || st.Shed() != 0 {
		t.Fatalf("expiry leaked into errors=%d shed=%d", st.Errors, st.Shed())
	}
}

func TestDeadlineExpiresInQueueWithoutOccupyingBatch(t *testing.T) {
	const forward = 60 * time.Millisecond
	s := NewServer()
	s.SetLogger(silence)
	defer s.Close()
	if err := s.Register("slow", slowNet(forward), AppConfig{
		BatchInstances: 1, Workers: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// Saturate the single worker and the batch channel so a later query
	// sits in the app queue past its deadline.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Infer("slow", make([]float32, 8)); err != nil {
				t.Errorf("background query failed: %v", err)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the backlog form
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := s.InferCtx(ctx, "slow", make([]float32, 8))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("queued query returned %v, want ErrDeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > forward {
		t.Fatalf("deadline return took %v, longer than a forward pass — caller was not unblocked at its deadline", waited)
	}
	wg.Wait()
	st, _ := s.StatsFor("slow")
	if st.Expired != 1 {
		t.Fatalf("expired counter %d, want 1", st.Expired)
	}
	if st.Queries != 3 || st.Batches != 3 {
		t.Fatalf("expired query occupied capacity: queries=%d batches=%d, want 3/3", st.Queries, st.Batches)
	}
}

func TestQueueWaitDominatesForwardUnderSlowWorker(t *testing.T) {
	const forward = 15 * time.Millisecond
	s := NewServer()
	s.SetLogger(silence)
	l, err := listen(t)
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Close)
	if err := s.Register("slow", slowNet(forward), AppConfig{
		BatchInstances: 1, Workers: 1,
	}); err != nil {
		t.Fatal(err)
	}
	const queries = 16
	var wg sync.WaitGroup
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Infer("slow", make([]float32, 8)); err != nil {
				t.Errorf("query failed: %v", err)
			}
		}()
	}
	wg.Wait()
	sum, ok := s.LatencyFor("slow")
	if !ok {
		t.Fatal("missing latency breakdown")
	}
	if sum.Forward.Count != queries || sum.QueueWait.Count != queries {
		t.Fatalf("stage sample counts %d/%d, want %d", sum.QueueWait.Count, sum.Forward.Count, queries)
	}
	// With one slow worker and a concurrent burst, queue wait dominates
	// the forward pass — exactly what the breakdown exists to expose.
	if sum.QueueWait.Mean < 2*sum.Forward.Mean {
		t.Fatalf("queue wait %v not ≫ forward %v under a saturated slow worker", sum.QueueWait.Mean, sum.Forward.Mean)
	}
	// The same breakdown is visible over the wire through the new
	// control verb, and stats reports the lifecycle counters.
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	lat, err := c.ServerLatency("slow")
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"queue_wait", "batch_assembly", "forward", "respond"} {
		if !strings.Contains(lat, stage) {
			t.Fatalf("latency verb output missing %q:\n%s", stage, lat)
		}
	}
	stats, err := c.ServerStats("slow")
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"shed_admission=", "shed_expired=", "expired=", "queries="} {
		if !strings.Contains(stats, field) {
			t.Fatalf("stats output missing %q: %s", field, stats)
		}
	}
}

func TestWorkerPanicFailsRequestNotCaller(t *testing.T) {
	s := NewServer()
	s.SetLogger(silence)
	defer s.Close()
	netw := nn.NewNet("bad", nn.KindDNN, 8).Add(&panicLayer{})
	if err := s.Register("bad", netw, AppConfig{
		BatchInstances: 1, Workers: 1,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		done := make(chan error, 1)
		go func() {
			_, err := s.Infer("bad", make([]float32, 8))
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "panic") {
				t.Fatalf("want panic-derived error, got %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("caller deadlocked on a panicking worker")
		}
	}
	st, _ := s.StatsFor("bad")
	if st.Errors != 3 {
		t.Fatalf("errors counter %d, want 3", st.Errors)
	}
}

func TestCloseDrainsGracefullyUnderLoad(t *testing.T) {
	const forward = 20 * time.Millisecond
	s := NewServer()
	s.SetLogger(silence)
	if err := s.Register("slow", slowNet(forward), AppConfig{
		BatchInstances: 16, Workers: 2, MaxPending: 64,
	}); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	_ = before // goroutine accounting happens against the post-close count below
	const queries = 32
	var wg sync.WaitGroup
	results := make(chan error, queries)
	for i := 0; i < queries; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Infer("slow", make([]float32, 8))
			results <- err
		}()
	}
	time.Sleep(5 * time.Millisecond) // let load build
	start := time.Now()
	s.Close()
	closeTook := time.Since(start)
	// Acceptance bound: the forward passes already committed (two
	// workers can each be mid-forward with one more batch buffered),
	// with scheduling slack.
	if limit := 6*forward + 500*time.Millisecond; closeTook > limit {
		t.Fatalf("Close took %v, want < %v", closeTook, limit)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("Infer calls still blocked after Close")
	}
	close(results)
	var ok, drained int
	for err := range results {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrShuttingDown):
			drained++
		default:
			t.Fatalf("unexpected drain error: %v", err)
		}
	}
	if ok+drained != queries {
		t.Fatalf("accounted for %d of %d queries", ok+drained, queries)
	}
	// All service goroutines must have exited: the worker pool and the
	// aggregator are gone once Close returns.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Fatalf("goroutines leaked after Close: %d running, baseline %d", n, before)
	}
	// And the drained server refuses new work with the distinct error.
	if _, err := s.Infer("slow", make([]float32, 8)); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("post-close Infer returned %v, want ErrShuttingDown", err)
	}
}

func TestInferCtxDeadlineOverTCP(t *testing.T) {
	const forward = 60 * time.Millisecond
	s := NewServer()
	s.SetLogger(silence)
	l, err := listen(t)
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(s.Close)
	if err := s.Register("slow", slowNet(forward), AppConfig{
		BatchInstances: 1, Workers: 1,
	}); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Park a query on the worker so the deadline-bearing one queues.
	bg, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer bg.Close()
	bgDone := make(chan struct{})
	go func() {
		bg.Infer("slow", make([]float32, 8))
		close(bgDone)
	}()
	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	_, err = c.InferCtx(ctx, "slow", make([]float32, 8))
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("wire deadline returned %v, want ErrDeadlineExceeded", err)
	}
	<-bgDone
	// The server answered with a status frame, not a dropped
	// connection: the same client keeps working.
	if _, err := c.Infer("slow", make([]float32, 8)); err != nil {
		t.Fatalf("connection unusable after a deadline miss: %v", err)
	}
	st, _ := s.StatsFor("slow")
	if st.Expired == 0 {
		t.Fatal("server did not account the wire-deadline expiry")
	}
}

// TestLifecycleConcurrentMix hammers one server with deadline queries,
// plain queries, and a mid-run drain — the scenario `go test -race`
// checks for lifecycle data races.
func TestLifecycleConcurrentMix(t *testing.T) {
	s := NewServer()
	s.SetLogger(silence)
	if err := s.Register("slow", slowNet(2*time.Millisecond), AppConfig{
		BatchInstances: 4, Workers: 2, MaxPending: 8,
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if i%2 == 0 {
					ctx, cancel := context.WithTimeout(context.Background(), time.Duration(1+j)*time.Millisecond)
					s.InferCtx(ctx, "slow", make([]float32, 8))
					cancel()
				} else {
					s.Infer("slow", make([]float32, 8))
				}
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(20 * time.Millisecond)
	s.Close()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("workers hung across drain")
	}
	st, _ := s.StatsFor("slow")
	total := st.Queries + st.Expired + st.Shed()
	if total == 0 {
		t.Fatal("no queries accounted")
	}
}
