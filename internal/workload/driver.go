package workload

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"djinn/internal/metrics"
	"djinn/internal/models"
	"djinn/internal/service"
	"djinn/internal/tensor"
	"djinn/internal/trace"
)

// QueryPayload synthesises one ready-to-send DjiNN query payload for an
// application: Instances input vectors of the network's input
// dimension, the load the paper's stress tests put on the DNN service
// (preprocessing happens client-side and is not part of service load).
func QueryPayload(app models.App, rng *tensor.RNG) []float32 {
	spec := Get(app)
	dims := 1
	for _, d := range models.BuildCached(app).InShape() {
		dims *= d
	}
	out := make([]float32, spec.Instances*dims)
	rng.FillNorm(out, 0, 0.5)
	return out
}

// DriveResult summarises a load-driver run against a live service.
type DriveResult struct {
	Queries int64 // completed successfully
	QPS     float64
	Latency metrics.Summary
	Errors  int64 // genuine failures (malformed payloads, worker faults)
	Shed    int64 // rejected by backpressure (ErrOverloaded)
	Expired int64 // missed their per-query deadline (ErrDeadlineExceeded)
	// SLOMisses counts successfully answered queries whose latency
	// exceeded DriveOptions.SLO (0 when no SLO was declared). A shed or
	// expired query is not an SLO miss — it is accounted above.
	SLOMisses int64
	// TraceIDs are the trace IDs the drive minted when sampling was on
	// (DriveOptions.TraceEvery > 0), capped at a handful — look them up
	// afterwards with the service's trace control verb or /slowlog.
	TraceIDs []string
}

// Issued is the total number of queries the drive sent, whatever their
// outcome.
func (r DriveResult) Issued() int64 {
	return r.Queries + r.Errors + r.Shed + r.Expired
}

// SLOAttainment is the fraction of served queries that met the SLO
// (1 when no SLO was declared or nothing was served).
func (r DriveResult) SLOAttainment() float64 {
	if r.Queries == 0 {
		return 1
	}
	return float64(r.Queries-r.SLOMisses) / float64(r.Queries)
}

// maxSampledTraces bounds DriveResult.TraceIDs; the drive keeps minting
// (every sampled query still leaves spans server-side) but only the
// first few IDs are reported back.
const maxSampledTraces = 16

// driveCounters classifies per-query outcomes during a run.
type driveCounters struct {
	errs      atomic.Int64
	shed      atomic.Int64
	expired   atomic.Int64
	sloMisses atomic.Int64
	slo       time.Duration // measurement target; 0 = not tracked

	mu       sync.Mutex
	traceIDs []string
}

// sampled records one minted trace ID, keeping only the first few.
func (c *driveCounters) sampled(id string) {
	c.mu.Lock()
	if len(c.traceIDs) < maxSampledTraces {
		c.traceIDs = append(c.traceIDs, id)
	}
	c.mu.Unlock()
}

// outcome classifies one issued query.
type outcome int

const (
	outcomeOK      outcome = iota
	outcomeExpired         // missed its deadline — expected under load
	outcomeShed            // backpressure rejection — expected under load
	outcomeError           // genuine failure (fault, dead backend, ...)
)

// issue sends one query, using the context-aware API when a per-query
// deadline or trace ID rides it, and classifies the outcome. Successful
// latencies are recorded into every supplied recorder (the mixed driver
// tees each query into a per-app and an aggregate stream).
func (c *driveCounters) issue(b service.Backend, name string, payload []float32, deadline time.Duration, traceID string, lats ...*metrics.LatencyRecorder) outcome {
	t0 := time.Now()
	var err error
	if cb, ok := b.(service.ContextBackend); ok && (deadline > 0 || traceID != "") {
		ctx := context.Background()
		if traceID != "" {
			ctx = trace.WithID(ctx, traceID)
		}
		if deadline > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, deadline)
			defer cancel()
		}
		_, err = cb.InferCtx(ctx, name, payload)
	} else {
		_, err = b.Infer(name, payload)
	}
	switch {
	case err == nil:
		elapsed := time.Since(t0)
		for _, lat := range lats {
			lat.Record(elapsed)
		}
		if c.slo > 0 && elapsed > c.slo {
			c.sloMisses.Add(1)
		}
		return outcomeOK
	case errors.Is(err, service.ErrDeadlineExceeded):
		c.expired.Add(1)
		return outcomeExpired
	case errors.Is(err, service.ErrOverloaded):
		c.shed.Add(1)
		return outcomeShed
	default:
		c.errs.Add(1)
		return outcomeError
	}
}

func (c *driveCounters) result(lat *metrics.LatencyRecorder, duration time.Duration) DriveResult {
	sum := lat.Summarize()
	c.mu.Lock()
	ids := append([]string(nil), c.traceIDs...)
	c.mu.Unlock()
	return DriveResult{
		Queries:   int64(sum.Count),
		QPS:       float64(sum.Count) / duration.Seconds(),
		Latency:   sum,
		Errors:    c.errs.Load(),
		Shed:      c.shed.Load(),
		Expired:   c.expired.Load(),
		SLOMisses: c.sloMisses.Load(),
		TraceIDs:  ids,
	}
}

// DriveClosedLoop saturates the backend with the given number of
// concurrent workers, each issuing queries back-to-back for the
// duration — the paper's stress-test methodology, on the real service.
func DriveClosedLoop(b service.Backend, app models.App, name string, workers int, duration time.Duration) DriveResult {
	return DriveClosedLoopDeadline(b, app, name, workers, duration, 0)
}

// DriveClosedLoopDeadline is DriveClosedLoop with a per-query deadline
// (0 = none): each query carries a context that expires after deadline,
// and misses are counted in DriveResult.Expired rather than aborting
// the worker.
func DriveClosedLoopDeadline(b service.Backend, app models.App, name string, workers int, duration, deadline time.Duration) DriveResult {
	return DriveClosedLoopOptions(b, name, func(rng *tensor.RNG) []float32 {
		return QueryPayload(app, rng)
	}, DriveOptions{Workers: workers, Duration: duration, Deadline: deadline})
}

// DriveOptions bundles the optional knobs of a closed-loop drive.
type DriveOptions struct {
	Workers  int           // concurrent closed-loop clients
	Duration time.Duration // how long to drive
	Deadline time.Duration // per-query deadline (0 = none)
	// SLO is a measurement-side target p99: served queries slower than
	// this count in DriveResult.SLOMisses (0 = not tracked). Unlike
	// Deadline it does not abort queries — it grades them.
	SLO time.Duration
	// TraceEvery mints a fresh trace ID onto every Nth query per worker
	// (0 = all untraced). Each sampled query's lifecycle lands in the
	// backend's trace store; the first few IDs come back in
	// DriveResult.TraceIDs so they can be looked up afterwards.
	TraceEvery int
}

// DriveClosedLoopOptions is the full closed-loop driver: every other
// closed-loop entry point funnels here. payload is called once per
// worker with that worker's RNG, so apps outside the Tonic Suite — a
// synthetic model, say — can be driven too.
func DriveClosedLoopOptions(b service.Backend, name string, payload func(*tensor.RNG) []float32, opts DriveOptions) DriveResult {
	lat := metrics.NewLatencyRecorder()
	counters := driveCounters{slo: opts.SLO}
	var wg sync.WaitGroup
	stop := time.Now().Add(opts.Duration)
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := tensor.NewRNG(seed)
			query := payload(rng)
			// Back off exponentially on consecutive hard errors so a
			// dead backend (connection refused fails in microseconds)
			// doesn't turn the closed loop into a busy spin.
			backoff := time.Duration(0)
			for n := 0; time.Now().Before(stop); n++ {
				var id string
				if opts.TraceEvery > 0 && n%opts.TraceEvery == 0 {
					id = trace.NewID()
					counters.sampled(id)
				}
				if counters.issue(b, name, query, opts.Deadline, id, lat) == outcomeError {
					if backoff == 0 {
						backoff = time.Millisecond
					} else if backoff < 100*time.Millisecond {
						backoff *= 2
					}
					time.Sleep(backoff)
				} else {
					backoff = 0
				}
			}
		}(uint64(w) + 1)
	}
	wg.Wait()
	return counters.result(lat, opts.Duration)
}

// DrivePoisson issues queries with exponentially distributed
// inter-arrival times at the given rate (open-loop), bounding the
// number of outstanding requests by maxInflight connections.
func DrivePoisson(b service.Backend, app models.App, name string, rate float64, maxInflight int, duration time.Duration) DriveResult {
	return DrivePoissonDeadline(b, app, name, rate, maxInflight, duration, 0)
}

// DrivePoissonDeadline is DrivePoisson with a per-query deadline
// (0 = none).
func DrivePoissonDeadline(b service.Backend, app models.App, name string, rate float64, maxInflight int, duration, deadline time.Duration) DriveResult {
	return DrivePoissonOptions(b, name, func(rng *tensor.RNG) []float32 {
		return QueryPayload(app, rng)
	}, rate, maxInflight, DriveOptions{Duration: duration, Deadline: deadline})
}

// DrivePoissonOptions is the full open-loop driver: exponentially
// distributed inter-arrival times at the given rate, outstanding
// requests bounded by maxInflight, payload from a caller-supplied
// generator (called once, with the driver's RNG). Every other Poisson
// entry point funnels here. Workers in opts is ignored — arrival rate,
// not client count, sets the offered load.
func DrivePoissonOptions(b service.Backend, name string, payload func(*tensor.RNG) []float32, rate float64, maxInflight int, opts DriveOptions) DriveResult {
	if rate <= 0 || maxInflight <= 0 {
		panic("workload: DrivePoisson needs positive rate and inflight bound")
	}
	lat := metrics.NewLatencyRecorder()
	counters := driveCounters{slo: opts.SLO}
	rng := tensor.NewRNG(99)
	query := payload(rng)
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	stop := time.Now().Add(opts.Duration)
	arrival := time.Now()
	for n := 0; ; n++ {
		arrival = arrival.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if arrival.After(stop) {
			break
		}
		if d := time.Until(arrival); d > 0 {
			time.Sleep(d)
		}
		var id string
		if opts.TraceEvery > 0 && n%opts.TraceEvery == 0 {
			id = trace.NewID()
			counters.sampled(id)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			counters.issue(b, name, query, opts.Deadline, id, lat)
		}()
	}
	wg.Wait()
	return counters.result(lat, opts.Duration)
}
