package sched

import (
	"testing"
	"time"
)

// TestControllerRequiresSLO: constructing a controller without an SLO
// is a programming error.
func TestControllerRequiresSLO(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewController accepted a zero SLO")
		}
	}()
	NewController(Config{})
}

// TestAdmissionColdStart: before any service-time observation the
// controller admits everything — it has no basis for rejection.
func TestAdmissionColdStart(t *testing.T) {
	c := NewController(Config{SLO: 10 * time.Millisecond})
	for i := 0; i < 100; i++ {
		if _, ok := c.Admit(time.Microsecond, 8); !ok {
			t.Fatalf("cold controller rejected query %d", i)
		}
	}
	if got := c.Snapshot().Queued; got != 800 {
		t.Fatalf("queued = %d after 100×8 admissions, want 800", got)
	}
}

// TestAdmissionRejectsOverBudget: once the service-time EWMA is warm,
// queries whose delay estimate exceeds Safety×budget are refused, and
// refusals do not touch the queued account.
func TestAdmissionRejectsOverBudget(t *testing.T) {
	c := NewController(Config{SLO: 10 * time.Millisecond, Workers: 1})
	// 1ms per instance.
	c.ObserveBatch(8*time.Millisecond, 8)

	// Plenty of budget, empty queue: est = 1ms → admitted.
	est, ok := c.Admit(10*time.Millisecond, 1)
	if !ok {
		t.Fatalf("rejected with empty queue (est %v)", est)
	}
	// Tiny budget: 1ms of work cannot fit in 0.8×500µs.
	est, ok = c.Admit(500*time.Microsecond, 1)
	if ok {
		t.Fatalf("admitted with est %v against 500µs budget", est)
	}
	if got := c.Snapshot().Queued; got != 1 {
		t.Fatalf("queued = %d, want 1 (rejection must not reserve)", got)
	}

	// Fill the queue until the backlog alone blows the full SLO.
	admitted := 1
	for {
		if _, ok := c.Admit(10*time.Millisecond, 1); !ok {
			break
		}
		admitted++
		if admitted > 10_000 {
			t.Fatal("admission never engaged despite unbounded backlog")
		}
	}
	// Backlog drains: capacity opens up again.
	c.Executed(int(c.Snapshot().Queued))
	if _, ok := c.Admit(10*time.Millisecond, 1); !ok {
		t.Fatal("rejected after the queue fully drained")
	}

	info := c.Snapshot()
	if info.Admitted != int64(admitted)+1 || info.Rejected != 2 {
		t.Fatalf("admitted=%d rejected=%d, want %d/2", info.Admitted, info.Rejected, admitted+1)
	}
	if r := info.AdmissionRate(); r <= 0 || r >= 1 {
		t.Fatalf("admission rate %v out of (0,1)", r)
	}
}

// TestAdmissionEstimatesBacklog: the delay estimate is the backlog
// term alone — everything admitted and not yet executed, this query
// included, divided across the workers at the observed per-instance
// time. Batching is work-conserving, so no timer adds to it: on an idle
// replica a query is served in one forward pass, on a busy one it waits
// for a worker.
func TestAdmissionEstimatesBacklog(t *testing.T) {
	const (
		slo     = 100 * time.Millisecond
		perInst = 100 * time.Microsecond
		budget  = 10 * time.Millisecond // well over the work
	)
	cases := []struct {
		name    string
		workers int
		running []int // batches workers hold, in instances
		n       int   // the query's instances
		wantEst time.Duration
	}{
		{name: "idle replica", workers: 2, n: 1, wantEst: perInst / 2},
		{name: "every worker busy", workers: 2, running: []int{4, 4}, n: 1, wantEst: 9 * perInst / 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewController(Config{SLO: slo, Workers: tc.workers})
			// Cold admissions build the state, then one observation
			// warms the service-time estimate.
			for _, b := range tc.running {
				c.Admit(slo, b)
			}
			c.ObserveBatch(perInst, 1)
			est, ok := c.Admit(budget, tc.n)
			if est != tc.wantEst || !ok {
				t.Fatalf("Admit = (%v, %v), want (%v, true)", est, ok, tc.wantEst)
			}
			// Executed settles the account: what is left queued is the
			// query itself.
			for _, b := range tc.running {
				c.Executed(b)
			}
			if got := c.Snapshot().Queued; got != int64(tc.n) {
				t.Fatalf("queued = %d after the running batches finished, want %d", got, tc.n)
			}
		})
	}
}

// TestAdmissionAccountsWorkers: the delay estimate divides the backlog
// across the worker pool, so more workers admit deeper queues.
func TestAdmissionAccountsWorkers(t *testing.T) {
	depth := func(workers int) int {
		c := NewController(Config{SLO: 10 * time.Millisecond, Workers: workers})
		c.ObserveBatch(time.Millisecond, 1) // 1ms per instance
		n := 0
		for {
			if _, ok := c.Admit(10*time.Millisecond, 1); !ok {
				return n
			}
			n++
			if n > 10_000 {
				t.Fatalf("admission never engaged with %d workers", workers)
			}
		}
	}
	d1, d4 := depth(1), depth(4)
	if d4 < 3*d1 {
		t.Fatalf("4-worker depth %d not ≈4× 1-worker depth %d", d4, d1)
	}
}

// TestCompleteStepsAIMD: completions below the SLO grow the batch once
// EvalEvery samples accumulate; overload completions shrink it.
func TestCompleteStepsAIMD(t *testing.T) {
	c := NewController(Config{SLO: 50 * time.Millisecond, EvalEvery: 8})
	if c.BatchSize() != 1 {
		t.Fatalf("initial batch = %d, want 1", c.BatchSize())
	}
	for i := 0; i < 32; i++ {
		c.Complete(5 * time.Millisecond)
	}
	if got := c.BatchSize(); got != 5 { // 32/8 = 4 AIMD steps from 1
		t.Fatalf("batch = %d after 4 healthy evals, want 5", got)
	}
	grown := c.BatchSize()
	for i := 0; i < 8; i++ {
		c.Complete(500 * time.Millisecond)
	}
	if got := c.BatchSize(); got >= grown {
		t.Fatalf("batch = %d after overload eval, want < %d", got, grown)
	}
}

// TestInfoRoundTrip: the control verb's reply parses back into the
// same Info.
func TestInfoRoundTrip(t *testing.T) {
	in := Info{
		SLO:      60 * time.Millisecond,
		Priority: LatencyCritical,
		Batch:    17,
		Admitted: 12345,
		Rejected: 678,
		Queued:   42,
		EstWait:  3*time.Millisecond + 250*time.Microsecond,
	}
	out, err := ParseInfo(in.String())
	if err != nil {
		t.Fatalf("ParseInfo(%q): %v", in.String(), err)
	}
	if out != in {
		t.Fatalf("round trip mismatch:\n in=%+v\nout=%+v\nwire=%q", in, out, in.String())
	}
}

// TestParseInfoRejectsGarbage: malformed replies fail loudly instead
// of yielding half-parsed stats.
func TestParseInfoRejectsGarbage(t *testing.T) {
	bad := []string{
		"slo",                // no '='
		"batch=notanumber",   // bad int
		"slo=12parsecs",      // bad duration
		"priority=platinum",  // unknown class
		"batch=-4",           // negative
		"est_wait=-1ms",      // negative duration
		"admitted=1 batch=x", // second field bad
	}
	for _, s := range bad {
		if _, err := ParseInfo(s); err == nil {
			t.Errorf("ParseInfo(%q) accepted garbage", s)
		}
	}
	// Unknown keys are forward-compatible, not errors: a newer
	// server's extra field, and the window= field an older server sent.
	info, err := ParseInfo("batch=3 some_future_field=7")
	if err != nil || info.Batch != 3 {
		t.Fatalf("unknown key handling: info=%+v err=%v", info, err)
	}
	old := "slo=50ms priority=latency batch=12 window=1.1ms admitted=48231 rejected=1205 queued=36 est_wait=9.2ms admission_rate=0.976"
	want := Info{SLO: 50 * time.Millisecond, Priority: LatencyCritical, Batch: 12,
		Admitted: 48231, Rejected: 1205, Queued: 36, EstWait: 9200 * time.Microsecond}
	if info, err := ParseInfo(old); err != nil || info != want {
		t.Fatalf("older server's reply: info=%+v err=%v, want %+v", info, err, want)
	}
}

// FuzzParseInfo: the "sched" control verb reply parser must never
// panic, and valid replies must survive a parse→render→parse cycle.
func FuzzParseInfo(f *testing.F) {
	f.Add(Info{}.String())
	f.Add(Info{
		SLO: 60 * time.Millisecond, Priority: Standard, Batch: 8,
		Admitted: 100, Rejected: 7, Queued: 3,
		EstWait: 2 * time.Millisecond,
	}.String())
	f.Add("sched tiny")
	f.Add("slo=1h priority=throughput batch=64")
	f.Add("batch=9999999999999999999999")
	f.Add("=== = =")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		info, err := ParseInfo(s)
		if err != nil {
			return
		}
		again, err := ParseInfo(info.String())
		if err != nil {
			t.Fatalf("re-parse of %q (from %q) failed: %v", info.String(), s, err)
		}
		if again != info {
			t.Fatalf("parse→render→parse not stable: %+v vs %+v", info, again)
		}
	})
}
