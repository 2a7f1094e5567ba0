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

	// Plenty of budget, empty queue: est ≈ window + 1ms → admitted.
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

// TestAdmissionChargesWindowOnlyBelowFloor: the floor-wait window is
// part of the delay estimate only for a query whose batch would still
// be below the floor, the one case in which the aggregator holds a
// batch back for the timer. With the floor met a query whose budget is
// under the window is served in one forward pass — or waits for a
// worker, which is the backlog term — and must be admitted; the
// controller used to refuse it.
func TestAdmissionChargesWindowOnlyBelowFloor(t *testing.T) {
	const (
		slo     = 100 * time.Millisecond
		window  = slo / 2 // pinned batch (Min == Max): AIMD's MaxWindow
		perInst = 100 * time.Microsecond
		budget  = 10 * time.Millisecond // well under the window, well over the work
	)
	cases := []struct {
		name    string
		floor   int // AIMD.Min, and MaxBatch: the batch is pinned
		workers int
		started []int // batches workers hold, in instances
		pending int   // instances admitted and still waiting
		n       int   // the query's instances
		wantEst time.Duration
		admit   bool
	}{
		{name: "no floor, idle replica", floor: 1, workers: 2, n: 1,
			wantEst: perInst / 2, admit: true},
		{name: "no floor, every worker busy", floor: 1, workers: 2, started: []int{4, 4}, n: 1,
			wantEst: 9 * perInst / 2, admit: true},
		{name: "query alone meets the floor", floor: 4, workers: 1, n: 4,
			wantEst: 4 * perInst, admit: true},
		{name: "query completes the floor", floor: 4, workers: 1, pending: 3, n: 1,
			wantEst: 4 * perInst, admit: true},
		{name: "batch still below the floor", floor: 4, workers: 1, pending: 1, n: 1,
			wantEst: window, admit: false},
		{name: "running instances do not count toward the floor", floor: 4, workers: 2, started: []int{4}, n: 1,
			wantEst: window, admit: false},
		{name: "below the floor, backlog above the window", floor: 4, workers: 1, started: []int{1000}, n: 1,
			wantEst: 1001 * perInst, admit: false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewController(Config{SLO: slo, Workers: tc.workers, MaxBatch: tc.floor,
				AIMD: AIMDConfig{Min: tc.floor}})
			if got := c.Window(); got != window {
				t.Fatalf("window = %v, want %v", got, window)
			}
			// Cold admissions build the state, then one observation
			// warms the service-time estimate.
			for _, b := range tc.started {
				c.Admit(slo, b)
				c.Started(b)
			}
			if tc.pending > 0 {
				c.Admit(slo, tc.pending)
			}
			c.ObserveBatch(perInst, 1)
			est, ok := c.Admit(budget, tc.n)
			if est != tc.wantEst || ok != tc.admit {
				t.Fatalf("Admit = (%v, %v), want (%v, %v)", est, ok, tc.wantEst, tc.admit)
			}
			// Executed settles both accounts: what is left queued is what
			// never reached a worker.
			for _, b := range tc.started {
				c.Executed(b)
			}
			want := int64(tc.pending)
			if tc.admit {
				want += int64(tc.n)
			}
			if got := c.Snapshot().Queued; got != want {
				t.Fatalf("queued = %d after the running batches finished, want %d", got, want)
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
	if w := c.Window(); w <= 0 {
		t.Fatalf("window = %v, want > 0", w)
	}
}

// TestInfoRoundTrip: the control verb's reply parses back into the
// same Info.
func TestInfoRoundTrip(t *testing.T) {
	in := Info{
		SLO:      60 * time.Millisecond,
		Priority: LatencyCritical,
		Batch:    17,
		Window:   750 * time.Microsecond,
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
		"window=-1ms",        // negative duration
		"admitted=1 batch=x", // second field bad
	}
	for _, s := range bad {
		if _, err := ParseInfo(s); err == nil {
			t.Errorf("ParseInfo(%q) accepted garbage", s)
		}
	}
	// Unknown keys are forward-compatible, not errors.
	info, err := ParseInfo("batch=3 some_future_field=7")
	if err != nil || info.Batch != 3 {
		t.Fatalf("unknown key handling: info=%+v err=%v", info, err)
	}
}

// FuzzParseInfo: the "sched" control verb reply parser must never
// panic, and valid replies must survive a parse→render→parse cycle.
func FuzzParseInfo(f *testing.F) {
	f.Add(Info{}.String())
	f.Add(Info{
		SLO: 60 * time.Millisecond, Priority: Standard, Batch: 8,
		Window: time.Millisecond, Admitted: 100, Rejected: 7, Queued: 3,
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
