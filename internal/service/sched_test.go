package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"djinn/internal/sched"
	"djinn/internal/testutil"
)

// TestAdmissionShedsBeforeQueue: once the service-time estimate is
// warm, queries that cannot meet the SLO are rejected with
// ErrOverloaded at dispatch — before they occupy queue capacity — and
// land in ShedAdmission, not ShedExpired.
func TestAdmissionShedsBeforeQueue(t *testing.T) {
	testutil.NoLeaks(t)
	s := NewServer()
	s.SetLogger(silence)
	defer s.Close()
	const forward = 10 * time.Millisecond
	if err := s.Register("slow", slowNet(forward), AppConfig{
		BatchInstances: 1, Workers: 1,
		MaxPending: 1024, SLO: 20 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}

	// First wave admits cold (no service-time observation yet) and
	// builds a deep backlog behind the single 10ms-per-batch worker.
	const wave = 30
	var wg sync.WaitGroup
	var served, overloaded atomic.Int64
	issue := func() {
		defer wg.Done()
		_, err := s.Infer("slow", make([]float32, 8))
		switch {
		case err == nil:
			served.Add(1)
		case errors.Is(err, ErrOverloaded):
			overloaded.Add(1)
		default:
			t.Errorf("unexpected error: %v", err)
		}
	}
	wg.Add(wave)
	for i := 0; i < wave; i++ {
		go issue()
	}
	// Wait for the estimate to warm up (≥2 completed batches) while
	// most of the wave still queues.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := s.StatsFor("slow")
		if st.Queries >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first wave never completed a batch")
		}
		time.Sleep(time.Millisecond)
	}

	// Second wave: the backlog alone is worth hundreds of ms against a
	// 20ms SLO, so admission must reject it.
	wg.Add(wave)
	for i := 0; i < wave; i++ {
		go issue()
	}
	wg.Wait()

	st, _ := s.StatsFor("slow")
	if overloaded.Load() == 0 || st.ShedAdmission == 0 {
		t.Fatalf("admission never engaged: overloaded=%d stats=%+v", overloaded.Load(), st)
	}
	if st.ShedExpired != 0 {
		t.Fatalf("admitted queries rotted in the queue: %+v", st)
	}
	if served.Load() == 0 {
		t.Fatal("admission rejected everything, including feasible work")
	}
	info, ok := s.SchedFor("slow")
	if !ok {
		t.Fatal("SchedFor returned no info for an SLO app")
	}
	if info.Rejected == 0 || info.Admitted == 0 {
		t.Fatalf("scheduler counters empty: %+v", info)
	}
	if r := info.AdmissionRate(); r <= 0 || r >= 1 {
		t.Fatalf("admission rate %v, want in (0,1)", r)
	}
	// The queued-instance account must balance: everything admitted was
	// either executed or dropped by the time all callers returned.
	if info.Queued != 0 {
		t.Fatalf("queued account leaked: %+v", info)
	}
}

// lateCtx is a context whose deadline has passed but whose Done channel
// has not closed yet — what a query looks like on a host busy enough to
// run the context's timer late.
type lateCtx struct{ context.Context }

func (lateCtx) Deadline() (time.Time, bool) { return time.Now().Add(-time.Millisecond), true }

// TestPastDeadlineIsExpiredNotOverloaded: admission must not answer a
// query whose deadline has already passed with ErrOverloaded — that is
// retryable, and the router would carry the corpse to another replica.
func TestPastDeadlineIsExpiredNotOverloaded(t *testing.T) {
	s := inproc(t, AppConfig{BatchInstances: 1, Workers: 1, SLO: time.Second})
	in := make([]float32, 8)
	if _, err := s.Infer("tiny", in); err != nil { // warms the estimate: admission can reject now
		t.Fatal(err)
	}
	_, err := s.InferCtx(lateCtx{context.Background()}, "tiny", in)
	if !errors.Is(err, ErrDeadlineExceeded) || Retryable(err) {
		t.Fatalf("past-deadline query returned %v, want a terminal ErrDeadlineExceeded", err)
	}
	st, _ := s.StatsFor("tiny")
	if st.Expired != 1 || st.Shed() != 0 || st.Queries != 1 {
		t.Fatalf("stats %+v, want 1 served, 1 expired, 0 shed", st)
	}
	if info, _ := s.SchedFor("tiny"); info.Queued != 0 || info.Rejected != 0 {
		t.Fatalf("scheduler account %+v, want nothing queued or rejected", info)
	}
}

// TestAdaptiveBatchGrowsUnderHealthyLoad: with a generous SLO and
// steady concurrent traffic, the adaptive controller must grow the
// effective batch past the initial size of 1.
func TestAdaptiveBatchGrowsUnderHealthyLoad(t *testing.T) {
	testutil.NoLeaks(t)
	s := NewServer()
	s.SetLogger(silence)
	defer s.Close()
	if err := s.Register("tiny", testNet(1), AppConfig{
		BatchInstances: 32, Workers: 2,
		SLO: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := s.Infer("tiny", make([]float32, 8)); err != nil {
					t.Errorf("query failed: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	info, ok := s.SchedFor("tiny")
	if !ok {
		t.Fatal("SchedFor returned no info")
	}
	if info.Batch <= 1 {
		t.Fatalf("adaptive batch never grew: %+v", info)
	}
	if info.Batch > 32 {
		t.Fatalf("adaptive batch exceeded MaxBatch: %+v", info)
	}
	if info.Admitted != 400 || info.Rejected != 0 {
		t.Fatalf("counters: %+v, want 400 admitted / 0 rejected", info)
	}
}

// TestSchedControlVerb: the "sched" verb renders a parseable snapshot
// for SLO apps, "disabled" for static apps, and an error for unknown
// ones.
func TestSchedControlVerb(t *testing.T) {
	testutil.NoLeaks(t)
	s := NewServer()
	s.SetLogger(silence)
	defer s.Close()
	if err := s.Register("tiny", testNet(1), AppConfig{
		BatchInstances: 8, Workers: 1, SLO: 100 * time.Millisecond,
		Priority: sched.LatencyCritical,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("bulk", testNet(2), AppConfig{BatchInstances: 8, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	inferN(t, s, 4)

	out, err := s.control("sched tiny")
	if err != nil {
		t.Fatal(err)
	}
	info, err := sched.ParseInfo(out)
	if err != nil {
		t.Fatalf("sched verb output unparseable: %q: %v", out, err)
	}
	if info.SLO != 100*time.Millisecond || info.Priority != sched.LatencyCritical {
		t.Fatalf("sched verb reported %+v", info)
	}
	if info.Admitted != 4 {
		t.Fatalf("admitted = %d, want 4 (%q)", info.Admitted, out)
	}

	if out, err := s.control("sched bulk"); err != nil || out != "disabled" {
		t.Fatalf("static app sched verb = %q, %v; want \"disabled\"", out, err)
	}
	if _, err := s.control("sched nosuch"); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := s.control("sched"); err == nil {
		t.Fatal("missing app name accepted")
	}
	if !strings.Contains(out, "slo=") {
		t.Fatalf("sched output missing slo field: %q", out)
	}
}

// TestAbandonedThenExpiredQueryBalancesAdmission: a query whose caller
// abandons the wait (claiming the respond slot) and which then expires
// at batch assembly must still be Dropped from the admission account —
// gating Dropped on winning the respond race leaks queued instances
// into every future delay estimate, ratcheting admission toward
// rejecting everything.
func TestAbandonedThenExpiredQueryBalancesAdmission(t *testing.T) {
	testutil.NoLeaks(t)
	s := NewServer()
	s.SetLogger(silence)
	defer s.Close()
	const forward = 100 * time.Millisecond
	if err := s.Register("slow", slowNet(forward), AppConfig{
		BatchInstances: 1, Workers: 1,
		SLO: time.Second,
	}); err != nil {
		t.Fatal(err)
	}

	// Stall the pipeline: q1 occupies the worker for 100ms, q2 is the
	// pending batch (at its cap of one, so the aggregator stops reading),
	// q3 waits in the request queue. All are admitted cold (no
	// service-time estimate yet).
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Infer("slow", make([]float32, 8)); err != nil {
				t.Errorf("stall query failed: %v", err)
			}
		}()
		time.Sleep(10 * time.Millisecond)
	}

	// Victims: admitted cold, waiting in the request queue behind q3.
	// Their 20ms deadlines fire long before the aggregator reads again
	// (~100ms), so each caller abandons the wait and wins the respond
	// race; assembly later sees the corpses.
	const victims = 4
	wg.Add(victims)
	for i := 0; i < victims; i++ {
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			if _, err := s.InferCtx(ctx, "slow", make([]float32, 8)); !errors.Is(err, ErrDeadlineExceeded) {
				t.Errorf("victim got %v, want ErrDeadlineExceeded", err)
			}
		}()
	}
	wg.Wait()

	// All three stall batches completed; victims died at assembly with
	// the respond slot already claimed by their callers.
	st, _ := s.StatsFor("slow")
	if st.Queries != 3 {
		t.Fatalf("stall queries served = %d, want 3 (%+v)", st.Queries, st)
	}
	if st.Expired != victims {
		t.Fatalf("caller-side expired = %d, want %d (%+v)", st.Expired, victims, st)
	}
	if st.ShedExpired != 0 {
		t.Fatalf("ShedExpired = %d, want 0 — respond was already claimed (%+v)", st.ShedExpired, st)
	}
	info, ok := s.SchedFor("slow")
	if !ok {
		t.Fatal("SchedFor returned no info")
	}
	if info.Queued != 0 {
		t.Fatalf("admission account leaked %d instances: %+v", info.Queued, info)
	}
}

// TestSchedStatsDrainClean: an SLO app closed mid-traffic must not
// wedge — the drain balances the admission account via Dropped.
func TestSchedStatsDrainClean(t *testing.T) {
	testutil.NoLeaks(t)
	s := NewServer()
	s.SetLogger(silence)
	if err := s.Register("slow", slowNet(5*time.Millisecond), AppConfig{
		BatchInstances: 1, Workers: 1,
		SLO: time.Second,
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Infer("slow", make([]float32, 8)) // some fail with ErrShuttingDown
		}()
	}
	time.Sleep(10 * time.Millisecond)
	s.Close()
	wg.Wait()
	info, ok := s.SchedFor("slow")
	if !ok {
		t.Fatal("SchedFor after close")
	}
	if info.Queued != 0 {
		t.Fatalf("drain leaked %d queued instances", info.Queued)
	}
}
