package service

import (
	"bytes"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"djinn/internal/models"
	"djinn/internal/nn"
	"djinn/internal/tensor"
	"djinn/internal/testutil"
)

func silence(string, ...any) {}

func testNet(seed uint64) *nn.Net {
	rng := tensor.NewRNG(seed)
	n := nn.NewNet("tiny", nn.KindDNN, 8)
	n.Add(nn.NewFC("fc1", rng, 8, 16)).
		Add(nn.NewReLU("relu")).
		Add(nn.NewFC("fc2", rng, 16, 4)).
		Add(nn.NewSoftmax("prob"))
	return n
}

func startServer(t *testing.T, cfg AppConfig) (*Server, string) {
	t.Helper()
	// Registered before the Close cleanup below, so it checks after the
	// server has fully drained: no worker, aggregator, or connection
	// goroutine may outlive its server.
	testutil.NoLeaks(t)
	s := NewServer()
	s.SetLogger(silence)
	if err := s.Register("tiny", testNet(1), cfg); err != nil {
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
	netw := testNet(1)
	r := netw.NewRunner(1)
	out := r.Forward(tensor.FromSlice(in, 1, 8))
	return append([]float32(nil), out.Data()...)
}

func TestProtocolRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := []float32{1, 2, 3, -4.5}
	if err := writeRequest(&buf, "asr", 250*time.Millisecond, in); err != nil {
		t.Fatal(err)
	}
	app, deadline, got, err := readRequest(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if app != "asr" || len(got) != 4 || got[3] != -4.5 {
		t.Fatalf("round trip wrong: %q %v", app, got)
	}
	if deadline != 250*time.Millisecond {
		t.Fatalf("deadline budget %v did not survive the wire", deadline)
	}
	buf.Reset()
	if err := writeResponse(&buf, StatusError, "boom", []float32{7}); err != nil {
		t.Fatal(err)
	}
	st, msg, out, err := readResponse(&buf)
	if err != nil || st != StatusError || msg != "boom" || out[0] != 7 {
		t.Fatalf("response round trip wrong: %v %q %v %v", st, msg, out, err)
	}
}

func TestProtocolRoundTripProperty(t *testing.T) {
	f := func(name string, vals []float32) bool {
		if len(name) == 0 || len(name) > MaxAppNameLen || strings.ContainsRune(name, 0) {
			return true
		}
		var buf bytes.Buffer
		if err := writeRequest(&buf, name, 0, vals); err != nil {
			return false
		}
		app, deadline, got, err := readRequest(&buf)
		if err != nil || app != name || deadline != 0 || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			// NaN payloads must survive bit-exactly too.
			if math.Float32bits(got[i]) != math.Float32bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestProtocolRejectsGarbage(t *testing.T) {
	if _, _, _, err := readRequest(bytes.NewReader([]byte{9, 9, 9, 9, 0, 0})); err == nil {
		t.Fatal("expected bad-magic error")
	}
	var buf bytes.Buffer
	writeRequest(&buf, "x", 0, []float32{1, 2})
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, _, _, err := readRequest(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestEndToEndInference(t *testing.T) {
	_, addr := startServer(t, AppConfig{BatchInstances: 4})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := []float32{1, 0, -1, 2, 0.5, 0, 0, 1}
	out, err := c.Infer("tiny", in)
	if err != nil {
		t.Fatal(err)
	}
	want := refOutput(t, in)
	if len(out) != 4 {
		t.Fatalf("got %d outputs, want 4", len(out))
	}
	for i := range want {
		if math.Abs(float64(out[i]-want[i])) > 1e-6 {
			t.Fatalf("out[%d]=%v want %v", i, out[i], want[i])
		}
	}
}

func TestMultiInstanceQuery(t *testing.T) {
	// One query carrying 3 instances (like ASR's 548 frames) must
	// return 3 stacked probability vectors.
	_, addr := startServer(t, AppConfig{BatchInstances: 8})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	in := make([]float32, 3*8)
	for i := range in {
		in[i] = float32(i%7) - 3
	}
	out, err := c.Infer("tiny", in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3*4 {
		t.Fatalf("got %d outputs, want 12", len(out))
	}
	for k := 0; k < 3; k++ {
		want := refOutput(t, in[k*8:(k+1)*8])
		for i := range want {
			if math.Abs(float64(out[k*4+i]-want[i])) > 1e-6 {
				t.Fatalf("instance %d out[%d]=%v want %v", k, i, out[k*4+i], want[i])
			}
		}
	}
}

func TestQueryLargerThanRunnerBatchIsChunked(t *testing.T) {
	// 10 instances with a runner capacity of 4 → the worker must chunk.
	_, addr := startServer(t, AppConfig{BatchInstances: 4})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 10
	in := make([]float32, n*8)
	tensor.NewRNG(3).FillNorm(in, 0, 1)
	out, err := c.Infer("tiny", in)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != n*4 {
		t.Fatalf("got %d outputs, want %d", len(out), n*4)
	}
	for k := 0; k < n; k++ {
		want := refOutput(t, in[k*8:(k+1)*8])
		for i := range want {
			if math.Abs(float64(out[k*4+i]-want[i])) > 1e-6 {
				t.Fatalf("instance %d mismatch", k)
			}
		}
	}
}

// TestPlanGrowsBetweenQueries sends a 548-frame ASR-width query to an
// app whose only plan has so far run a 12-frame one, so the plan grows
// between the two: each answer must carry the bits of a plan that ran
// that query as a batch of its own.
func TestPlanGrowsBetweenQueries(t *testing.T) {
	testutil.NoLeaks(t)
	const dim = models.ASRFeatureDim
	rng := tensor.NewRNG(31)
	netw := nn.NewNet("asr-width", nn.KindDNN, dim)
	netw.Add(nn.NewFC("fc1", rng, dim, 64)).
		Add(nn.NewSigmoid("sig1")).
		Add(nn.NewFC("fc2", rng, 64, 32)).
		Add(nn.NewSoftmax("prob"))
	s := NewServer()
	s.SetLogger(silence)
	defer s.Close()
	if err := s.Register("asr", netw, AppConfig{BatchInstances: 1096, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	for _, frames := range []int{12, 548} {
		in := make([]float32, frames*dim)
		tensor.NewRNG(uint64(frames)).FillNorm(in, 0, 1)
		out, err := s.Infer("asr", in)
		if err != nil {
			t.Fatal(err)
		}
		want := netw.Compile(frames).Forward(tensor.FromSlice(in, frames, dim)).Data()
		if len(out) != len(want) {
			t.Fatalf("%d frames: %d outputs, want %d", frames, len(out), len(want))
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("%d frames: out[%d]=%v, a batch of its own gives %v", frames, i, out[i], want[i])
			}
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	// Concurrent clients over TCP each get their own query's result back,
	// however the aggregator groups them (how it groups them is
	// TestAggregatorWorkConserving's subject).
	s, addr := startServer(t, AppConfig{BatchInstances: 16, Workers: 1})
	const clients = 8
	const perClient = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			in := make([]float32, 8)
			tensor.NewRNG(seed).FillNorm(in, 0, 1)
			for j := 0; j < perClient; j++ {
				out, err := c.Infer("tiny", in)
				if err != nil {
					t.Error(err)
					return
				}
				want := refOutput(t, in)
				for k := range want {
					if math.Abs(float64(out[k]-want[k])) > 1e-6 {
						t.Error("wrong result under concurrency")
						return
					}
				}
			}
		}(uint64(i + 10))
	}
	wg.Wait()
	st, ok := s.StatsFor("tiny")
	if !ok {
		t.Fatal("missing stats")
	}
	if st.Queries != clients*perClient {
		t.Fatalf("served %d queries, want %d", st.Queries, clients*perClient)
	}
}

func TestUnknownAppError(t *testing.T) {
	_, addr := startServer(t, AppConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Infer("nope", []float32{1}); err == nil {
		t.Fatal("expected unknown-app error")
	}
	// The connection must survive an application error.
	if _, err := c.Infer("tiny", make([]float32, 8)); err != nil {
		t.Fatalf("connection should survive app error: %v", err)
	}
}

func TestBadPayloadSizeError(t *testing.T) {
	_, addr := startServer(t, AppConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Infer("tiny", []float32{1, 2, 3}); err == nil {
		t.Fatal("expected payload-size error")
	}
}

func TestRegisterDuplicate(t *testing.T) {
	s := NewServer()
	s.SetLogger(silence)
	defer s.Close()
	if err := s.Register("a", testNet(1), AppConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("a", testNet(2), AppConfig{}); err == nil {
		t.Fatal("expected duplicate-registration error")
	}
}

func TestInProcessInfer(t *testing.T) {
	s := NewServer()
	s.SetLogger(silence)
	defer s.Close()
	if err := s.Register("tiny", testNet(1), AppConfig{}); err != nil {
		t.Fatal(err)
	}
	in := make([]float32, 8)
	in[0] = 1
	out, err := s.Infer("tiny", in)
	if err != nil {
		t.Fatal(err)
	}
	want := refOutput(t, in)
	for i := range want {
		if out[i] != want[i] {
			t.Fatal("in-process inference differs")
		}
	}
}

func TestCloseUnblocksClients(t *testing.T) {
	s, addr := startServer(t, AppConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan struct{})
	go func() {
		// This may error or succeed depending on timing; it must not hang.
		c.Infer("tiny", make([]float32, 8))
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("client hung after server close")
	}
}

func TestControlCommands(t *testing.T) {
	_, addr := startServer(t, AppConfig{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	apps, err := c.Apps()
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 1 || apps[0] != "tiny" {
		t.Fatalf("apps = %v", apps)
	}
	// Stats before and after a query.
	if _, err := c.Infer("tiny", make([]float32, 8)); err != nil {
		t.Fatal(err)
	}
	stats, err := c.ServerStats("tiny")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, "queries=1") {
		t.Fatalf("stats = %q", stats)
	}
	// Errors for unknown apps and commands.
	if _, err := c.ServerStats("nope"); err == nil {
		t.Fatal("expected error for unknown app")
	}
	if _, err := c.Control("selfdestruct"); err == nil {
		t.Fatal("expected error for unknown command")
	}
	// Inference still works on the same connection after control traffic.
	if _, err := c.Infer("tiny", make([]float32, 8)); err != nil {
		t.Fatal(err)
	}
}

func TestBackpressureShedsLoad(t *testing.T) {
	// With a tiny pending queue and slow drain, excess queries must be
	// rejected rather than queued without bound.
	s := NewServer()
	s.SetLogger(silence)
	defer s.Close()
	if err := s.Register("tiny", testNet(1), AppConfig{
		BatchInstances: 1,
		Workers:        1,
		MaxPending:     2,
	}); err != nil {
		t.Fatal(err)
	}
	var rejected int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Infer("tiny", make([]float32, 8)); err != nil {
				mu.Lock()
				rejected++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st, _ := s.StatsFor("tiny")
	if rejected == 0 {
		t.Log("no rejections observed (drain kept up); acceptable but unusual")
	}
	// Shed load is accounted separately from malformed payloads and
	// worker failures.
	if st.ShedAdmission != rejected {
		t.Fatalf("shed counter %d != rejections %d", st.ShedAdmission, rejected)
	}
	if st.Errors != 0 {
		t.Fatalf("shed queries leaked into the error counter (%d)", st.Errors)
	}
}

func TestIntraOpWorkersMatchSerial(t *testing.T) {
	serial := NewServer()
	serial.SetLogger(silence)
	defer serial.Close()
	par := NewServer()
	par.SetLogger(silence)
	defer par.Close()
	if err := serial.Register("tiny", testNet(1), AppConfig{BatchInstances: 8}); err != nil {
		t.Fatal(err)
	}
	if err := par.Register("tiny", testNet(1), AppConfig{BatchInstances: 8, IntraOpWorkers: 4}); err != nil {
		t.Fatal(err)
	}
	in := make([]float32, 6*8)
	tensor.NewRNG(77).FillNorm(in, 0, 1)
	a, err := serial.Infer("tiny", in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.Infer("tiny", in)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(float64(a[i]-b[i])) > 1e-6 {
			t.Fatalf("intra-op result differs at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
