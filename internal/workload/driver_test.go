package workload

import (
	"testing"
	"time"

	"djinn/internal/models"
	"djinn/internal/service"
	"djinn/internal/tensor"
	"djinn/internal/testutil"
)

func digServer(t *testing.T) *service.Server {
	t.Helper()
	// Drivers spawn a goroutine per worker/in-flight query; this fails
	// the test if any survive the run and the server's drain.
	testutil.NoLeaks(t)
	s := service.NewServer()
	s.SetLogger(func(string, ...any) {})
	spec := Get(models.DIG)
	if err := s.Register("dig", models.BuildCached(models.DIG), service.AppConfig{
		BatchInstances: spec.BatchSize * spec.Instances,
	}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestQueryPayloadSizes(t *testing.T) {
	rng := tensor.NewRNG(1)
	for _, app := range models.Apps {
		spec := Get(app)
		dims := 1
		for _, d := range models.BuildCached(app).InShape() {
			dims *= d
		}
		p := QueryPayload(app, rng)
		if len(p) != spec.Instances*dims {
			t.Errorf("%s payload %d floats, want %d", app, len(p), spec.Instances*dims)
		}
	}
}

func TestDriveClosedLoop(t *testing.T) {
	s := digServer(t)
	res := DriveClosedLoop(s, models.DIG, "dig", 4, 300*time.Millisecond)
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	if res.Queries < 4 {
		t.Fatalf("only %d queries completed", res.Queries)
	}
	if res.QPS <= 0 || res.Latency.Mean <= 0 {
		t.Fatalf("bad result %+v", res)
	}
}

func TestDriveClosedLoopDeadline(t *testing.T) {
	s := digServer(t)
	// A nanosecond budget expires before dispatch: every query is
	// rejected pre-forward and lands in Expired, not Errors.
	res := DriveClosedLoopDeadline(s, models.DIG, "dig", 2, 50*time.Millisecond, time.Nanosecond)
	if res.Expired == 0 {
		t.Fatal("no deadline misses recorded")
	}
	if res.Errors != 0 {
		t.Fatalf("deadline misses misclassified as %d errors", res.Errors)
	}
	if res.Queries != 0 {
		t.Fatalf("%d queries completed under an impossible deadline", res.Queries)
	}
	// A generous budget completes normally. The budget must absorb a
	// full DIG batch forward under the race detector's ~20× slowdown.
	res = DriveClosedLoopDeadline(s, models.DIG, "dig", 2, 50*time.Millisecond, 2*time.Minute)
	if res.Queries == 0 || res.Errors != 0 {
		t.Fatalf("generous deadline run failed: %+v", res)
	}
}

func TestDrivePoisson(t *testing.T) {
	s := digServer(t)
	res := DrivePoisson(s, models.DIG, "dig", 50, 8, 300*time.Millisecond)
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	if res.Queries < 3 {
		t.Fatalf("only %d queries completed", res.Queries)
	}
	if res.Latency.P95 < res.Latency.P50 {
		t.Fatal("percentiles inverted")
	}
}

func TestDriveClosedLoopTraceSampling(t *testing.T) {
	s := digServer(t)
	res := DriveClosedLoopOptions(s, "dig", func(rng *tensor.RNG) []float32 {
		return QueryPayload(models.DIG, rng)
	}, DriveOptions{Workers: 2, Duration: 300 * time.Millisecond, TraceEvery: 10})
	if res.Errors != 0 || res.Queries < 2 {
		t.Fatalf("bad drive: %+v", res)
	}
	if len(res.TraceIDs) == 0 {
		t.Fatal("TraceEvery set but no IDs sampled")
	}
	if len(res.TraceIDs) > maxSampledTraces {
		t.Fatalf("%d sampled IDs exceed the cap", len(res.TraceIDs))
	}
	// Each sampled query must have left its lifecycle in the server's
	// store under the minted ID.
	tr, ok := s.TraceStore().Get(res.TraceIDs[0])
	if !ok {
		t.Fatalf("no server trace for sampled ID %s", res.TraceIDs[0])
	}
	var sawForward bool
	for _, sp := range tr.Spans {
		sawForward = sawForward || sp.Name == "forward"
	}
	if !sawForward {
		t.Fatalf("sampled trace has no forward span: %+v", tr.Spans)
	}
}

func TestDriveUntracedLeavesStoreEmpty(t *testing.T) {
	s := digServer(t)
	res := DriveClosedLoop(s, models.DIG, "dig", 2, 200*time.Millisecond)
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	if len(res.TraceIDs) != 0 {
		t.Fatalf("untraced drive reported IDs: %v", res.TraceIDs)
	}
	if n := s.TraceStore().Len(); n != 0 {
		t.Fatalf("untraced drive left %d traces", n)
	}
}
