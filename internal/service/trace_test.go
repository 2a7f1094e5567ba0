package service

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"djinn/internal/trace"
)

func TestTracedRequestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := []float32{1, 2, 3}
	if err := writeTracedRequest(&buf, "abc123", "asr", 250*time.Millisecond, in); err != nil {
		t.Fatal(err)
	}
	magic, err := readUint32(&buf)
	if err != nil || magic != reqTraceMagic {
		t.Fatalf("magic %#x err %v", magic, err)
	}
	id, err := readTraceHeader(&buf)
	if err != nil || id != "abc123" {
		t.Fatalf("trace header %q err %v", id, err)
	}
	app, deadline, got, err := readRequestBody(&buf)
	if err != nil || app != "asr" || deadline != 250*time.Millisecond || len(got) != 3 {
		t.Fatalf("body round trip wrong: %q %v %v %v", app, deadline, got, err)
	}
}

func TestTraceHeaderBounds(t *testing.T) {
	// Oversized on the write side.
	var buf bytes.Buffer
	if err := writeTracedRequest(&buf, strings.Repeat("x", trace.MaxIDLen+1), "asr", 0, nil); err == nil {
		t.Fatal("oversized trace id accepted by writer")
	}
	// Oversized on the read side: a hostile length byte.
	if _, err := readTraceHeader(bytes.NewReader([]byte{200, 'a', 'b'})); err == nil {
		t.Fatal("oversized trace header accepted by reader")
	}
	// Truncated: length promises more bytes than follow.
	if _, err := readTraceHeader(bytes.NewReader([]byte{8, 'a', 'b'})); err == nil {
		t.Fatal("truncated trace header accepted")
	}
	// Absent (zero-length) id is legal and means untraced.
	id, err := readTraceHeader(bytes.NewReader([]byte{0}))
	if err != nil || id != "" {
		t.Fatalf("zero-length header: id=%q err=%v", id, err)
	}
}

// TestEndToEndTraceOverTCP sends a traced query through the real wire
// protocol and checks the server's store holds the full lifecycle and
// that the "trace" control verb renders it.
func TestEndToEndTraceOverTCP(t *testing.T) {
	srv, addr := startServer(t, AppConfig{BatchInstances: 1, Workers: 1})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	id := trace.NewID()
	in := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	ctx, cancel := context.WithTimeout(trace.WithID(context.Background(), id), 5*time.Second)
	defer cancel()
	out, err := c.InferCtx(ctx, "tiny", in)
	if err != nil || len(out) != 4 {
		t.Fatalf("traced infer: %v out=%v", err, out)
	}

	tr, ok := srv.TraceStore().Get(id)
	if !ok {
		t.Fatalf("server retained no trace for %s", id)
	}
	names := map[string]bool{}
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"queue_wait", "batch_assembly", "forward", "respond"} {
		if !names[want] {
			t.Fatalf("trace missing %s span: %+v", want, tr.Spans)
		}
	}
	// The span durations must be consistent with the latency breakdown
	// the server already exports: both views of the same query.
	sum, _ := srv.LatencyFor("tiny")
	for _, sp := range tr.Spans {
		if sp.Name == "forward" && sum.Forward.Count > 0 {
			if sp.Dur <= 0 || sp.Dur < sum.Forward.P50/10 || sp.Dur > 10*sum.Forward.P50+time.Second {
				t.Fatalf("forward span %v inconsistent with breakdown p50 %v", sp.Dur, sum.Forward.P50)
			}
		}
	}

	// The control verb renders the same trace over the wire.
	text, err := c.ServerTrace(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{id, "batch_assembly", "batch="} {
		if !strings.Contains(text, want) {
			t.Fatalf("trace verb output missing %q:\n%s", want, text)
		}
	}
	slow, err := c.ServerSlowestTraces(3)
	if err != nil || !strings.Contains(slow, id) {
		t.Fatalf("slowest verb: %v\n%s", err, slow)
	}
}

// TestUntracedRequestLeavesNoSpans: the plain frame must not populate
// the store — tracing is strictly opt-in per query.
func TestUntracedRequestLeavesNoSpans(t *testing.T) {
	srv, addr := startServer(t, AppConfig{BatchInstances: 1, Workers: 1})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Infer("tiny", []float32{1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if n := srv.TraceStore().Len(); n != 0 {
		t.Fatalf("untraced query left %d trace(s)", n)
	}
}

// TestUntracedQueryPaysNoTraceAllocs: with tracing off, a query must
// not pay for the spans a traced one records — in particular not for
// formatting the batch_assembly note, which is built at the call site
// before traceSpans can look at the trace ID. A traced query over the
// same path allocates more; an untraced one stays at the serving path's
// own fixed count.
func TestUntracedQueryPaysNoTraceAllocs(t *testing.T) {
	s := inproc(t, AppConfig{BatchInstances: 1, Workers: 1})
	in := make([]float32, 8)
	infer := func(ctx context.Context) func() {
		return func() {
			if _, err := s.InferCtx(ctx, "tiny", in); err != nil {
				t.Fatal(err)
			}
		}
	}
	// What serving a query takes: the request, its response channel
	// (header and buffer), the pending batch and the output array.
	const servingAllocs = 5
	untraced := testing.AllocsPerRun(200, infer(context.Background()))
	if untraced > servingAllocs {
		t.Errorf("untraced Infer: %.1f allocs/query, want at most %d", untraced, servingAllocs)
	}
	traced := testing.AllocsPerRun(200, infer(trace.WithID(context.Background(), trace.NewID())))
	if traced <= untraced {
		t.Errorf("traced Infer: %.1f allocs/query, untraced %.1f: the traced path records nothing?", traced, untraced)
	}
}

// TestTraceRecordsQueueExpiry: a query that dies in the queue leaves an
// explanatory span instead of a complete lifecycle.
func TestTraceRecordsQueueExpiry(t *testing.T) {
	srv := NewServer()
	srv.SetLogger(silence)
	t.Cleanup(srv.Close)
	// One worker, batches of one: the first query occupies the worker
	// while the second expires waiting.
	if err := srv.Register("tiny", testNet(1), AppConfig{BatchInstances: 1, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	id := trace.NewID()
	ctx, cancel := context.WithTimeout(trace.WithID(context.Background(), id), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the context expire
	if _, err := srv.InferCtx(ctx, "tiny", []float32{1, 2, 3, 4, 5, 6, 7, 8}); err == nil {
		t.Fatal("expired query succeeded")
	}
	// The pre-enqueue expiry path rejects before the request exists;
	// drive the in-queue path too: enqueue with a short deadline under
	// a stalled aggregator is racy to stage reliably, so assert only
	// the invariant this test owns — an expired query never leaves a
	// complete lifecycle trace.
	if tr, ok := srv.TraceStore().Get(id); ok {
		for _, sp := range tr.Spans {
			if sp.Name == "forward" {
				t.Fatalf("expired query recorded a forward span: %+v", tr.Spans)
			}
		}
	}
}

func TestControlTraceErrors(t *testing.T) {
	srv := NewServer()
	srv.SetLogger(silence)
	t.Cleanup(srv.Close)
	if _, err := srv.control("trace"); err == nil {
		t.Fatal("bare trace verb accepted")
	}
	if _, err := srv.control("trace nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	if _, err := srv.control("trace slowest bogus"); err == nil {
		t.Fatal("non-numeric slowest accepted")
	}
	if out, err := srv.control("trace slowest 3"); err != nil || !strings.Contains(out, "no traces") {
		t.Fatalf("empty slowest: %q err=%v", out, err)
	}
}
