package service

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"djinn/internal/events"
	"djinn/internal/metrics"
	"djinn/internal/modelstore"
	"djinn/internal/nn"
	"djinn/internal/sched"
	"djinn/internal/trace"
)

// AppConfig controls batching and worker-pool parameters for one
// registered application.
type AppConfig struct {
	// BatchInstances is the number of DNN input instances aggregated
	// into one forward pass (queries × instances-per-query at the
	// Table 3 operating point). Zero means 64. Batching is
	// work-conserving: a batch waits for a worker, never for a timer,
	// and grows toward this cap only while every worker is busy.
	BatchInstances int
	// Workers is the number of concurrent inference workers (the
	// paper's concurrent DNN service instances; 4 is the paper's
	// chosen MPS operating point). Zero means 4.
	Workers int
	// IntraOpWorkers is the intra-op parallelism of each forward pass:
	// GEMM-backed layers split their output rows across this many
	// goroutines (CPU-only deployments use cores inside a batch as well
	// as across batches). Row blocks are disjoint, so results stay
	// bit-identical to serial execution. Zero or 1 runs serial kernels.
	IntraOpWorkers int
	// MaxPending bounds the queries waiting in the app's aggregation
	// queue; beyond it the service sheds load with an error instead of
	// letting latency grow without bound. Zero means 1024.
	MaxPending int
	// SLO declares a target p99 latency for the app. A non-zero SLO
	// enables the scheduler: admission control rejects queries that
	// cannot meet their deadline before they enter the queue, and an
	// adaptive controller resizes the batch cap within
	// [1, BatchInstances] to hold p99 at the SLO. Zero keeps the static
	// BatchInstances cap.
	SLO time.Duration
	// Priority is the app's tenant class at the cross-app execution
	// gate (see Server.SetSchedSlots). Zero is sched.Throughput.
	Priority sched.Priority
	// Precision selects the kernel backend the app's execution plans
	// compile against: nn.Float32 (the zero value) is the reference
	// path, nn.Float32Packed the panel-packing float32 kernels
	// (bit-identical outputs), nn.Int8 the quantized path (int8
	// weights and activations, int32 accumulation, ~99%+ top-1
	// agreement). The app's whole plan pool is compiled at this
	// precision, so pools are keyed by (app, version, precision) —
	// serving one model at two precisions means registering it twice
	// (e.g. "imc" and "imc@v2" with different configs).
	Precision nn.Precision
}

func (c AppConfig) withDefaults() AppConfig {
	if c.BatchInstances <= 0 {
		c.BatchInstances = 64
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.IntraOpWorkers <= 0 {
		c.IntraOpWorkers = 1
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 1024
	}
	return c
}

// Stats is a snapshot of one application's service counters.
type Stats struct {
	Queries   int64 // requests served
	Instances int64 // DNN input instances processed
	Batches   int64 // forward passes executed
	Errors    int64 // malformed payloads and worker failures
	// ShedAdmission counts queries rejected before they entered the
	// queue — the pending queue was full, or the admission controller
	// estimated they could not meet their deadline.
	ShedAdmission int64
	// ShedExpired counts queries that were admitted but died in the
	// queue: their deadline passed before batch assembly reached them.
	// A scheduler doing its job converts these into ShedAdmission.
	ShedExpired int64
	// Expired counts caller-side expiries: queries that arrived already
	// dead, or whose caller abandoned the wait for a response.
	Expired int64
}

// Shed is the total load shed before execution, both flavours.
func (s Stats) Shed() int64 { return s.ShedAdmission + s.ShedExpired }

// AvgBatch returns the mean instances per forward pass.
func (s Stats) AvgBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Instances) / float64(s.Batches)
}

type app struct {
	name          string
	net           *nn.Net
	cfg           AppConfig
	sampleIn      int // floats per input instance
	sampleOut     int
	reqCh         chan *request
	stages        *metrics.StageBreakdown
	e2e           *metrics.Histogram           // end-to-end served latency (enqueue → respond), fleet-mergeable
	traces        *atomic.Pointer[trace.Store] // the server's store, shared
	tput          *metrics.Throughput          // the server's completion rate, shared
	ctrl          *sched.Controller            // nil unless cfg.SLO > 0
	gate          *sched.Gate                  // the server's execution gate (nil = unlimited)
	batchSeq      atomic.Int64                 // batch ids for trace annotation
	queries       atomic.Int64
	instances     atomic.Int64
	batches       atomic.Int64
	errors        atomic.Int64
	shedAdmission atomic.Int64
	shedExpired   atomic.Int64
	expired       atomic.Int64
	plans         planStack // compiled execution plans, one checkout per batch
	stored        bool      // backed by a model-store mapping (see models.go)

	// gateMu serialises enqueues against shutdown: dispatch holds the
	// read side across its (non-blocking) send, stop takes the write
	// side to flip closed. After that handover no new request can enter
	// reqCh, so the aggregator's final drain is exhaustive.
	gateMu sync.RWMutex
	closed bool

	// Per-app lifecycle: each app owns its aggregator and workers, so
	// one app can be drained and unregistered (a model eviction) while
	// its siblings keep serving. closing stops the aggregator; wg
	// tracks the aggregator and every worker.
	closing  chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// stop drains the app: close the admission gate (new enqueues fail
// with ErrShuttingDown), stop the aggregator (the batch under assembly
// still runs; queued stragglers fail), and wait for the aggregator and
// every worker to exit. Idempotent and safe to call concurrently.
func (a *app) stop() {
	a.gateMu.Lock()
	a.closed = true
	a.gateMu.Unlock()
	a.stopOnce.Do(func() { close(a.closing) })
	a.wg.Wait()
}

// enqueue admits a request to the app's aggregation queue, shedding
// load when the queue is full and rejecting once the server drains.
func (a *app) enqueue(req *request) error {
	a.gateMu.RLock()
	defer a.gateMu.RUnlock()
	if a.closed {
		return fmt.Errorf("%w: %s rejected during drain", ErrShuttingDown, a.name)
	}
	select {
	case a.reqCh <- req:
		return nil
	default:
		// Aggregation queue full: shed load rather than queue unboundedly.
		a.shedAdmission.Add(1)
		return fmt.Errorf("%w: %s (%d queries pending)", ErrOverloaded, a.name, cap(a.reqCh))
	}
}

// Server is the DjiNN service: a model registry plus a TCP front-end.
type Server struct {
	mu       sync.Mutex
	apps     map[string]*app
	listener net.Listener
	conns    map[net.Conn]struct{}
	closing  chan struct{} // closed first: stop admitting, start drain
	done     chan struct{} // closed last: drain finished
	wg       sync.WaitGroup
	logf     func(format string, args ...any)
	traces   atomic.Pointer[trace.Store]
	tput     *metrics.Throughput
	gate     *sched.Gate // cross-app execution gate; nil = unlimited slots

	// Model store (see models.go): when attached, queries for names
	// that are not registered apps fault their model in from disk.
	store    *modelstore.Registry
	storeCfg AppConfig // batching config for store-backed apps

	// Fleet observability (optional): the shared event journal this
	// server appends model-lifecycle transitions to, and the injected
	// handler behind the "alerts" control verb (the burn-rate engine
	// lives above the service layer; a plain func avoids the upward
	// dependency).
	journal   atomic.Pointer[journalRef]
	alertsCtl atomic.Pointer[func(args []string) (string, error)]
}

// journalRef pairs the shared journal with this server's source label
// ("replica-2"), so one atomic pointer swaps both.
type journalRef struct {
	j      *events.Journal
	source string
}

// NewServer creates an empty DjiNN server. Register applications before
// serving.
func NewServer() *Server {
	s := &Server{
		apps:    map[string]*app{},
		conns:   map[net.Conn]struct{}{},
		closing: make(chan struct{}),
		done:    make(chan struct{}),
		logf:    log.Printf,
		tput:    metrics.NewThroughput(),
	}
	s.traces.Store(trace.NewStore("server", trace.DefaultStoreSize))
	return s
}

// SetLogger replaces the server's log function (tests use a silent one).
func (s *Server) SetLogger(logf func(string, ...any)) { s.logf = logf }

// TraceStore returns the server's bounded span store: every query that
// arrives with a trace ID leaves its lifecycle spans here.
func (s *Server) TraceStore() *trace.Store { return s.traces.Load() }

// SetTraceStore replaces the server's span store (a multi-replica
// process gives each replica a store labelled with its name). Call
// before serving; in-flight queries may still annotate the old store.
func (s *Server) SetTraceStore(st *trace.Store) {
	if st != nil {
		s.traces.Store(st)
	}
}

// Throughput returns the server's completion counter: one Add per
// successfully answered query, across all apps. Its RecentRate is the
// "current load" a metrics scrape reports.
func (s *Server) Throughput() *metrics.Throughput { return s.tput }

// SetJournal attaches the shared fleet event journal; source labels
// this server's entries (e.g. "replica-2"). Model registrations,
// fault-ins and eviction drains append here, and the "events" control
// verb reads from it.
func (s *Server) SetJournal(j *events.Journal, source string) {
	if source == "" {
		source = "server"
	}
	s.journal.Store(&journalRef{j: j, source: source})
}

// Journal returns the attached event journal (nil when none).
func (s *Server) Journal() *events.Journal {
	if ref := s.journal.Load(); ref != nil {
		return ref.j
	}
	return nil
}

// journalf appends one formatted event to the attached journal; a
// no-op when none is attached.
func (s *Server) journalf(kind events.Kind, format string, args ...any) {
	if ref := s.journal.Load(); ref != nil {
		ref.j.Appendf(kind, ref.source, format, args...)
	}
}

// SetAlertsControl injects the handler behind the "alerts" control
// verb (the admin wiring points it at the burn-rate engine).
func (s *Server) SetAlertsControl(fn func(args []string) (string, error)) {
	if fn == nil {
		s.alertsCtl.Store(nil)
		return
	}
	s.alertsCtl.Store(&fn)
}

// RequestHistogram returns one application's end-to-end served-latency
// histogram (enqueue → response). Fixed buckets make per-replica
// snapshots mergeable, which is what lets the fleet collector compute
// a true fleet p99 instead of averaging per-replica quantiles.
func (s *Server) RequestHistogram(name string) (metrics.HistogramSnapshot, bool) {
	a, ok := s.app(name)
	if !ok {
		return metrics.HistogramSnapshot{}, false
	}
	return a.e2e.Snapshot(), true
}

// SetSchedSlots bounds how many batch executions may run concurrently
// across all applications; when slots are contended, pending batches
// are granted by weighted round-robin over the apps' priority classes,
// so a latency-critical tenant's batch preempts queued throughput
// work. Zero or negative means unlimited (the default). Call before
// Register — apps capture the gate at registration time.
func (s *Server) SetSchedSlots(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gate = sched.NewGate(n)
}

// Register adds an application backed by a network whose weights are
// shared read-only across the app's workers. It returns an error if the
// name is taken.
func (s *Server) Register(name string, netw *nn.Net, cfg AppConfig) error {
	return s.register(name, netw, cfg, false)
}

func (s *Server) register(name string, netw *nn.Net, cfg AppConfig, stored bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case <-s.closing:
		return fmt.Errorf("%w: cannot register %q", ErrShuttingDown, name)
	default:
	}
	if _, ok := s.apps[name]; ok {
		return fmt.Errorf("service: app %q already registered", name)
	}
	cfg = cfg.withDefaults()
	if err := netw.CheckPrecision(cfg.Precision); err != nil {
		return fmt.Errorf("service: cannot register %q at %s: %w", name, cfg.Precision, err)
	}
	a := &app{
		name: name, net: netw, cfg: cfg,
		sampleIn:  elems(netw.InShape()),
		sampleOut: elems(netw.OutShape()),
		reqCh:     make(chan *request, cfg.MaxPending),
		stages:    metrics.NewStageBreakdown(),
		e2e:       metrics.NewHistogram(nil),
		traces:    &s.traces,
		tput:      s.tput,
		gate:      s.gate,
		closing:   make(chan struct{}),
		stored:    stored,
	}
	if cfg.SLO > 0 {
		a.ctrl = sched.NewController(sched.Config{
			SLO:      cfg.SLO,
			Priority: cfg.Priority,
			MaxBatch: cfg.BatchInstances,
			Workers:  cfg.Workers,
		})
	}
	s.apps[name] = a
	if a.ctrl != nil {
		s.logf("service: registered %s (%d params, %.1f MB, %s, adaptive batch ≤%d instances, slo %v, priority %v, %d workers)",
			name, netw.ParamCount(), float64(netw.WeightBytes())/(1<<20), cfg.Precision, cfg.BatchInstances, cfg.SLO, cfg.Priority, cfg.Workers)
	} else {
		s.logf("service: registered %s (%d params, %.1f MB, %s, batch %d instances, %d workers)",
			name, netw.ParamCount(), float64(netw.WeightBytes())/(1<<20), cfg.Precision, cfg.BatchInstances, cfg.Workers)
	}
	s.journalf(events.KindModel, "loaded %s (%.1f MB, %d workers)", name, float64(netw.WeightBytes())/(1<<20), cfg.Workers)
	// Unbuffered: a hand-off completes only against a worker that is
	// idle right now (see aggregate).
	batchCh := make(chan []*request)
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		a.aggregate(batchCh, a.closing)
	}()
	// Weights are shared read-only; each plan carries the activation
	// views, arenas and scratch a batch needs, built for the largest
	// batch it has run, so the steady-state forward path allocates
	// nothing. Register compiles the first plan, so a configuration the
	// compiler rejects fails here and the first query pays no compile;
	// workers compile more only when batches run concurrently (see
	// planStack).
	a.plans.compile = func() *nn.Plan {
		return netw.CompileOpts(cfg.BatchInstances, nn.CompileOpts{Workers: cfg.IntraOpWorkers, Precision: cfg.Precision})
	}
	a.plans.put(a.plans.get())
	for w := 0; w < cfg.Workers; w++ {
		a.wg.Add(1)
		go func() {
			defer a.wg.Done()
			a.work(batchCh)
		}()
	}
	return nil
}

// Unregister drains and removes one application at runtime: the
// admission gate closes (new queries fail with ErrShuttingDown), the
// batch under assembly runs to completion, queued stragglers fail, and
// Unregister returns only after the aggregator and every worker have
// exited — after which nothing in the server can touch the app's
// network, so a memory-mapped model's pages are safe to unmap. This is
// the teardown half of the model lifecycle; the model store's eviction
// hook is its main caller.
func (s *Server) Unregister(name string) error {
	s.mu.Lock()
	a, ok := s.apps[name]
	if ok {
		delete(s.apps, name)
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("service: unknown application %q", name)
	}
	a.stop()
	s.logf("service: unregistered %s", name)
	s.journalf(events.KindModel, "evicted %s (drained, %d queries served)", name, a.queries.Load())
	return nil
}

func elems(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

// Apps returns the registered application names.
func (s *Server) Apps() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.apps))
	for n := range s.apps {
		names = append(names, n)
	}
	return names
}

func (s *Server) app(name string) (*app, bool) {
	s.mu.Lock()
	a, ok := s.apps[name]
	s.mu.Unlock()
	return a, ok
}

// StatsFor returns the counters of one application. The three
// batch-path counters are loaded in the inverse of runBatch's increment
// order (batches per chunk, then instances, then queries per response):
// each counter is read before any counter that is bumped earlier, so a
// snapshot taken concurrently with a completing batch can never tear
// into an impossible state — Queries ≤ Instances always holds, and
// Instances > 0 implies Batches > 0.
func (s *Server) StatsFor(name string) (Stats, bool) {
	a, ok := s.app(name)
	if !ok {
		return Stats{}, false
	}
	queries := a.queries.Load()
	instances := a.instances.Load()
	batches := a.batches.Load()
	return Stats{
		Queries:       queries,
		Instances:     instances,
		Batches:       batches,
		Errors:        a.errors.Load(),
		ShedAdmission: a.shedAdmission.Load(),
		ShedExpired:   a.shedExpired.Load(),
		Expired:       a.expired.Load(),
	}, true
}

// PrecisionFor returns the kernel precision one application's plan pool
// was compiled at.
func (s *Server) PrecisionFor(name string) (nn.Precision, bool) {
	a, ok := s.app(name)
	if !ok {
		return nn.Float32, false
	}
	return a.cfg.Precision, true
}

// SchedFor returns the live scheduler snapshot of one application, or
// false if the app is unknown or registered without an SLO.
func (s *Server) SchedFor(name string) (sched.Info, bool) {
	a, ok := s.app(name)
	if !ok || a.ctrl == nil {
		return sched.Info{}, false
	}
	return a.ctrl.Snapshot(), true
}

// LatencyFor returns the per-stage lifecycle breakdown of one
// application: queue wait, batch assembly, forward pass, response
// delivery.
func (s *Server) LatencyFor(name string) (metrics.StageSummary, bool) {
	a, ok := s.app(name)
	if !ok {
		return metrics.StageSummary{}, false
	}
	return a.stages.Summarize(), true
}

// StageHistogram returns one application's fixed-bucket latency
// histogram for one lifecycle stage — the aggregatable counterpart of
// LatencyFor's reservoir summaries, exported by the admin /metrics
// endpoint in Prometheus form.
func (s *Server) StageHistogram(name string, stage metrics.Stage) (metrics.HistogramSnapshot, bool) {
	a, ok := s.app(name)
	if !ok {
		return metrics.HistogramSnapshot{}, false
	}
	return a.stages.HistogramFor(stage), true
}

// batchTarget caps the instances one batch may hold: the adaptive
// controller's live batch size when scheduling is enabled, the static
// BatchInstances otherwise.
func (a *app) batchTarget() int {
	if a.ctrl != nil {
		return a.ctrl.BatchSize()
	}
	return a.cfg.BatchInstances
}

// aggregate collects requests into batches under one work-conserving
// rule: the pending batch goes to a worker the moment one is free.
// batchCh is unbuffered and workers block receiving on it, so offering
// the batch in the select below succeeds exactly when a worker is idle.
// On an idle replica a query therefore leaves as a batch of one without
// waiting; while every worker is busy the batch keeps growing, up to
// batchTarget, and the first worker to finish takes all of it — the
// cross-request batching that Section 5.1 shows is key to throughput
// forms exactly when the replica is saturated, the only time it buys
// any. At the cap the aggregator stops reading reqCh, which then fills
// to MaxPending and sheds.
//
// Queries whose deadline has already expired are failed here, at
// batch-assembly time, so a dead query never occupies forward-pass
// capacity.
func (a *app) aggregate(batchCh chan<- []*request, closing <-chan struct{}) {
	defer close(batchCh)
	var (
		pending   []*request
		instances int
	)
	admit := func(req *request) {
		req.dequeued = time.Now()
		if req.expired() {
			// Balance the admission account before the respond race:
			// the request leaves the pipeline here whether or not its
			// caller already abandoned the wait (in which case respond
			// loses the CAS), and an un-Dropped admit would leak queued
			// instances into every future delay estimate.
			if a.ctrl != nil {
				a.ctrl.Dropped(req.instances)
			}
			if req.claim() {
				a.shedExpired.Add(1)
				a.traceSpans(req, trace.Span{
					Name: "queue_wait", Start: req.enqueued,
					Dur: req.dequeued.Sub(req.enqueued), Note: "expired in queue",
				})
				req.deliver(result{err: fmt.Errorf("%w: expired after %v in queue", ErrDeadlineExceeded, req.dequeued.Sub(req.enqueued).Round(time.Microsecond))})
			}
			return
		}
		pending = append(pending, req)
		instances += req.instances
	}
	for {
		// Drain first once closing is closed. The select below picks at
		// random among ready cases, so without this check a worker freed
		// after Close could take a hand-off, and a straggler admitted
		// next would then run as a batch instead of being drained.
		select {
		case <-closing:
			a.drain(batchCh, pending)
			return
		default:
		}
		// A nil channel never becomes ready: in is nil while the batch is
		// at its cap, out while nothing is pending.
		var in <-chan *request
		if instances < a.batchTarget() {
			in = a.reqCh
		}
		var out chan<- []*request
		if len(pending) > 0 {
			out = batchCh
		}
		select {
		case <-closing:
			a.drain(batchCh, pending)
			return
		case req := <-in:
			admit(req)
		case out <- pending:
			pending, instances = nil, 0
		}
	}
}

// drain is the aggregator's graceful exit: the batch under assembly
// still runs, but stragglers waiting in the queue fail immediately. The
// enqueue gate is already closed, so this drain sees every request that
// will ever be on reqCh.
func (a *app) drain(batchCh chan<- []*request, pending []*request) {
	if len(pending) > 0 {
		batchCh <- pending
	}
	for {
		select {
		case req := <-a.reqCh:
			// Dropped regardless of the respond race: an abandoned caller
			// has claimed the response slot already, but the admitted
			// instances still leave the pipeline here.
			if a.ctrl != nil {
				a.ctrl.Dropped(req.instances)
			}
			if req.claim() {
				req.deliver(result{err: fmt.Errorf("%w: %s drained before execution", ErrShuttingDown, a.name)})
			}
		default:
			return
		}
	}
}

// traceSpans annotates a traced request's lifecycle spans into the
// server's span store. It is a no-op for untraced requests, but its
// arguments are built before that check: a caller whose spans cost
// anything to build (a formatted Note) checks req.traceID itself, so
// the only cost tracing adds to an untraced query is that comparison.
func (a *app) traceSpans(req *request, spans ...trace.Span) {
	if req.traceID == "" {
		return
	}
	if st := a.traces.Load(); st != nil {
		st.Add(req.traceID, spans...)
	}
}

// planStack is an app's pool of compiled plans, grown on demand and
// reused most-recent-first. A worker compiles a plan only when every
// plan is checked out by another worker, so an app never holds more
// plans than it has had batches in flight at once (at most Workers),
// and a serially queried app holds one. Handing out the plan returned
// last reuses the arenas most likely still in cache and leaves the
// others idle rather than growing each in turn.
type planStack struct {
	compile func() *nn.Plan

	mu    sync.Mutex
	free  []*nn.Plan
	built int // plans compiled so far
}

// get checks out the most recently returned plan, compiling a new one
// when none is free.
func (p *planStack) get() *nn.Plan {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		plan := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return plan
	}
	p.built++
	p.mu.Unlock()
	return p.compile()
}

// put returns a plan for reuse.
func (p *planStack) put(plan *nn.Plan) {
	p.mu.Lock()
	p.free = append(p.free, plan)
	p.mu.Unlock()
}

// work executes the batches the aggregator hands this worker.
func (a *app) work(batchCh <-chan []*request) {
	for batch := range batchCh {
		a.runBatch(batch)
	}
}

// runBatch runs one aggregated batch on a plan checked out of the app's
// pool, records per-stage timings, and guarantees every request in the
// batch receives exactly one response: a panic anywhere in the forward
// path fails the batch's requests with an error instead of deadlocking
// their callers. A batch may exceed a plan's capacity when a single
// query carries many instances (an ASR query is 548 frames); the
// forward passes are then chunked.
func (a *app) runBatch(batch []*request) {
	// The hand-off is the worker's receive, so the worker stamps it: the
	// aggregator cannot write to a batch it has already given away.
	flushed := time.Now()
	// Gather all instances across the batch's requests.
	total := 0
	for _, r := range batch {
		total += r.instances
	}
	accounted := false
	var booking *request // claimed, response not yet delivered
	var plan *nn.Plan    // checked out, not yet returned
	defer func() {
		if r := recover(); r != nil {
			if plan != nil {
				a.plans.put(plan)
			}
			err := fmt.Errorf("service: %s worker panic: %v", a.name, r)
			if booking != nil {
				booking.deliver(result{err: err})
			}
			for _, req := range batch {
				if req.claim() {
					a.errors.Add(1)
					req.deliver(result{err: err})
				}
			}
			if a.ctrl != nil && !accounted {
				a.ctrl.Executed(total)
			}
		}
	}()
	// Contend for an execution slot: when the server's gate is
	// configured, pending batches across apps are granted by tenant
	// priority, so this wait is where a latency-critical app's batch
	// overtakes queued throughput work.
	a.gate.Acquire(context.Background(), a.cfg.Priority)
	defer a.gate.Release()
	plan = a.plans.get()
	forwardStart := time.Now()
	batchID := a.batchSeq.Add(1)
	maxB := plan.MaxBatch()
	// One output array per batch; per-request responses are capped
	// subslices of it, so the scatter below allocates nothing further
	// and copies nothing. (Callers own their response slice forever,
	// which is why this array cannot be pooled.)
	out := make([]float32, total*a.sampleOut)
	// Gather request payloads directly into each chunk's plan input
	// arena — no intermediate flat buffer, no per-chunk input tensor. A
	// request's instances may straddle chunk boundaries (ASR: 548
	// instances vs. a 64-instance plan), so a cursor tracks the partial
	// request across chunks.
	ri, ro := 0, 0 // request cursor: batch index, float offset within its payload
	for off := 0; off < total; off += maxB {
		n := total - off
		if n > maxB {
			n = maxB
		}
		dst := plan.In(n).Data()
		for filled, need := 0, n*a.sampleIn; filled < need; {
			c := copy(dst[filled:need], batch[ri].in[ro:])
			filled += c
			ro += c
			if ro == len(batch[ri].in) {
				ri++
				ro = 0
			}
		}
		res := plan.Run(n)
		copy(out[off*a.sampleOut:(off+n)*a.sampleOut], res.Data()[:n*a.sampleOut])
		a.batches.Add(1)
	}
	// Return the plan before any response goes out, so a caller's next
	// query finds it free rather than making another worker compile one.
	a.plans.put(plan)
	plan = nil
	a.instances.Add(int64(total))
	forwardDone := time.Now()
	forward := forwardDone.Sub(forwardStart)
	if a.ctrl != nil {
		a.ctrl.ObserveBatch(forward, total)
		a.ctrl.Executed(total)
		accounted = true
	}
	// Scatter results back to requests.
	off := 0
	for _, r := range batch {
		n := r.instances * a.sampleOut
		resp := out[off : off+n : off+n]
		off += n
		// Book the query before delivering its response: a caller that has
		// its answer finds it in the counters, histograms and span store.
		if r.claim() {
			booking = r
			a.queries.Add(1)
			a.tput.Add(1)
			e2e := time.Since(r.enqueued)
			a.e2e.RecordEx(e2e, r.traceID)
			if a.ctrl != nil {
				a.ctrl.Complete(e2e)
			}
		}
		a.stages.RecordEx(metrics.StageQueueWait, r.dequeued.Sub(r.enqueued), r.traceID)
		a.stages.RecordEx(metrics.StageBatchAssembly, flushed.Sub(r.dequeued), r.traceID)
		a.stages.RecordEx(metrics.StageForward, forward, r.traceID)
		respond := time.Since(forwardDone)
		a.stages.RecordEx(metrics.StageRespond, respond, r.traceID)
		if r.traceID != "" {
			a.traceSpans(r,
				trace.Span{Name: "queue_wait", Start: r.enqueued, Dur: r.dequeued.Sub(r.enqueued)},
				trace.Span{Name: "batch_assembly", Start: r.dequeued, Dur: flushed.Sub(r.dequeued),
					Note: fmt.Sprintf("batch=%d size=%d instances=%d", batchID, len(batch), total)},
				trace.Span{Name: "forward", Start: forwardStart, Dur: forward},
				trace.Span{Name: "respond", Start: forwardDone, Dur: respond})
		}
		if booking != nil {
			r.deliver(result{out: resp})
			booking = nil
		}
	}
}

// Serve accepts connections on l until Close is called.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.closing:
				// Graceful shutdown: don't return until the drain has
				// finished, so callers of ListenAndServe can exit as
				// soon as it does.
				<-s.done
				return nil
			default:
				return err
			}
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// ListenAndServe listens on addr and serves until Close.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Addr returns the listening address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return nil
	}
	return s.listener.Addr()
}

// handle runs one connection: a loop of request → batched inference →
// response. Multiple requests from one connection are processed in
// order. Control frames (apps/stats/latency introspection) interleave
// freely with inference requests.
func (s *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		magic, err := readUint32(conn)
		if err != nil {
			return // EOF: connection closed
		}
		switch magic {
		case reqMagic, reqTraceMagic:
			var traceID string
			if magic == reqTraceMagic {
				var terr error
				if traceID, terr = readTraceHeader(conn); terr != nil {
					return // oversized or truncated trace header: drop the connection
				}
			}
			appName, budget, in, err := readRequestBody(conn)
			if err != nil {
				return
			}
			ctx := context.Background()
			if traceID != "" {
				ctx = trace.WithID(ctx, traceID)
			}
			var cancel context.CancelFunc
			if budget > 0 {
				ctx, cancel = context.WithTimeout(ctx, budget)
			}
			out, err := s.dispatch(ctx, appName, in)
			if cancel != nil {
				cancel()
			}
			if err != nil {
				if werr := writeResponse(conn, statusFor(err), err.Error(), nil); werr != nil {
					return
				}
				continue
			}
			if err := writeResponse(conn, StatusOK, "", out); err != nil {
				return
			}
		case ctrlMagic:
			cmd, err := readControlBody(conn)
			if err != nil {
				return
			}
			answer, err := s.control(cmd)
			status := byte(StatusOK)
			if err != nil {
				status, answer = StatusError, err.Error()
			}
			if err := writeResponse(conn, status, answer, nil); err != nil {
				return
			}
		default:
			return // protocol violation: drop the connection
		}
	}
}

// control answers a control command: "apps" lists registered
// applications; "stats <app>" reports an application's counters;
// "latency <app>" reports its per-stage lifecycle breakdown;
// "sched <app>" reports the live scheduler state (batch cap, admission
// estimate and counters) or "disabled" for a static app;
// "precision [app]" reports the kernel precision an app's plan pool was
// compiled at (all apps when the name is omitted);
// "trace <id>" renders the spans recorded for one traced query and
// "trace slowest [n]" lists the worst retained traces;
// "model list|stats|register|load|evict" drives the model store's
// registry and lifecycle (see controlModel in models.go);
// "events [n] | events since <seq> | events kind <kind> [n]" reads the
// attached fleet event journal; "alerts" reaches the injected
// burn-rate alert engine.
func (s *Server) control(cmd string) (string, error) {
	fields := strings.Fields(cmd)
	if len(fields) == 0 {
		return "", errors.New("service: empty control command")
	}
	switch fields[0] {
	case "trace":
		return s.controlTrace(fields[1:])
	case "model":
		return s.controlModel(fields[1:])
	case "events":
		return s.Journal().Control(fields[1:])
	case "alerts":
		if fn := s.alertsCtl.Load(); fn != nil {
			return (*fn)(fields[1:])
		}
		return "", errors.New("service: no alert engine attached")
	case "apps":
		names := s.Apps()
		sort.Strings(names)
		return strings.Join(names, " "), nil
	case "stats":
		if len(fields) != 2 {
			return "", errors.New("service: usage: stats <app>")
		}
		st, ok := s.StatsFor(fields[1])
		if !ok {
			return "", fmt.Errorf("service: unknown application %q", fields[1])
		}
		return fmt.Sprintf("queries=%d instances=%d batches=%d errors=%d shed_admission=%d shed_expired=%d expired=%d avg_batch=%.2f",
			st.Queries, st.Instances, st.Batches, st.Errors, st.ShedAdmission, st.ShedExpired, st.Expired, st.AvgBatch()), nil
	case "sched":
		if len(fields) != 2 {
			return "", errors.New("service: usage: sched <app>")
		}
		if _, ok := s.app(fields[1]); !ok {
			return "", fmt.Errorf("service: unknown application %q", fields[1])
		}
		info, ok := s.SchedFor(fields[1])
		if !ok {
			return "disabled", nil
		}
		return info.String(), nil
	case "precision":
		if len(fields) > 2 {
			return "", errors.New("service: usage: precision [app]")
		}
		if len(fields) == 2 {
			prec, ok := s.PrecisionFor(fields[1])
			if !ok {
				return "", fmt.Errorf("service: unknown application %q", fields[1])
			}
			return prec.String(), nil
		}
		names := s.Apps()
		sort.Strings(names)
		var sb strings.Builder
		for i, name := range names {
			if i > 0 {
				sb.WriteByte('\n')
			}
			prec, _ := s.PrecisionFor(name)
			fmt.Fprintf(&sb, "%s %s", name, prec)
		}
		if sb.Len() == 0 {
			return "no applications registered", nil
		}
		return sb.String(), nil
	case "latency":
		if len(fields) != 2 {
			return "", errors.New("service: usage: latency <app>")
		}
		sum, ok := s.LatencyFor(fields[1])
		if !ok {
			return "", fmt.Errorf("service: unknown application %q", fields[1])
		}
		return sum.String(), nil
	default:
		return "", fmt.Errorf("service: unknown control command %q", fields[0])
	}
}

// controlTrace answers the "trace" control verb: "trace <id>" renders
// one trace's span timeline, "trace slowest [n]" lists the n worst
// retained traces as "id total spans" lines (default 5).
func (s *Server) controlTrace(args []string) (string, error) {
	st := s.traces.Load()
	if st == nil || len(args) == 0 {
		return "", errors.New("service: usage: trace <id> | trace slowest [n]")
	}
	if args[0] != "slowest" {
		if len(args) != 1 {
			return "", errors.New("service: usage: trace <id> | trace slowest [n]")
		}
		tr, ok := st.Get(args[0])
		if !ok {
			return "", fmt.Errorf("service: no trace %q retained (store keeps the last %d traced queries)", args[0], st.Len())
		}
		return tr.Format(), nil
	}
	n := 5
	if len(args) > 1 {
		v, err := strconv.Atoi(args[1])
		if err != nil || v <= 0 {
			return "", errors.New("service: usage: trace slowest [n]")
		}
		n = v
	}
	slowest := st.Slowest(n)
	if len(slowest) == 0 {
		return "no traces retained (send queries with a trace ID)", nil
	}
	var sb strings.Builder
	for i, tr := range slowest {
		if i > 0 {
			sb.WriteByte('\n')
		}
		fmt.Fprintf(&sb, "%s total=%v spans=%d", tr.ID, tr.Duration().Round(time.Microsecond), len(tr.Spans))
	}
	return sb.String(), nil
}

// dispatch routes one query payload to its application and waits for
// the batched result. It is also the in-process entry point used by
// tests and by Tonic running in embedded mode. The context bounds the
// whole lifecycle: an already-expired context is rejected before the
// query ever occupies a batch slot, and a deadline that fires while the
// query is queued abandons the wait instead of blocking forever.
func (s *Server) dispatch(ctx context.Context, appName string, in []float32) ([]float32, error) {
	a, ok := s.app(appName)
	if !ok || a.stored {
		// Not a registered app, or one serving a store model: fault the
		// model in if need be and pin it for the query (see models.go).
		return s.dispatchStored(ctx, appName, in)
	}
	return s.dispatchApp(ctx, a, in)
}

// dispatchApp runs one query against a resolved application.
func (s *Server) dispatchApp(ctx context.Context, a *app, in []float32) ([]float32, error) {
	appName := a.name
	if len(in) == 0 || len(in)%a.sampleIn != 0 {
		a.errors.Add(1)
		return nil, fmt.Errorf("service: %s payload of %d floats is not a multiple of the %d-float input", appName, len(in), a.sampleIn)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctxExpiry(ctx); err != nil {
		a.expired.Add(1)
		return nil, fmt.Errorf("%w: %v", ErrDeadlineExceeded, err)
	}
	req := &request{
		ctx:       ctx,
		in:        in,
		instances: len(in) / a.sampleIn,
		traceID:   trace.IDFrom(ctx),
		enqueued:  time.Now(),
		resp:      make(chan result, 1),
	}
	if a.ctrl != nil {
		// Admission control: reject now if the live delay estimate says
		// this query cannot meet its budget, instead of letting it rot
		// in the queue until batch assembly notices the corpse. The
		// budget is the caller's remaining deadline, capped by the SLO
		// the app promises.
		budget := a.ctrl.SLO()
		if dl, ok := ctx.Deadline(); ok {
			if rem := time.Until(dl); rem < budget {
				budget = rem
			}
		}
		est, ok := a.ctrl.Admit(budget, req.instances)
		if !ok {
			a.shedAdmission.Add(1)
			if req.traceID != "" {
				a.traceSpans(req, trace.Span{Name: "admission", Start: req.enqueued,
					Dur: time.Since(req.enqueued), Note: fmt.Sprintf("rejected: est %v > budget %v", est, budget)})
			}
			return nil, fmt.Errorf("%w: %s admission rejected (est %v exceeds budget %v)",
				ErrOverloaded, appName, est.Round(time.Microsecond), budget.Round(time.Microsecond))
		}
	}
	if err := a.enqueue(req); err != nil {
		if a.ctrl != nil {
			a.ctrl.Dropped(req.instances)
		}
		if req.traceID != "" {
			a.traceSpans(req, trace.Span{Name: "enqueue", Start: req.enqueued,
				Dur: time.Since(req.enqueued), Note: "rejected: " + err.Error()})
		}
		return nil, err
	}
	// Every enqueued request is guaranteed exactly one response (worker
	// result, worker-panic error, expiry at batch assembly, or drain
	// error), so waiting on resp alone cannot hang; ctx lets the caller
	// abandon the wait early.
	select {
	case res := <-req.resp:
		return res.out, res.err
	case <-ctx.Done():
		// Claim the response slot so the late worker result (if any) is
		// discarded and counted as expired exactly once.
		if req.claim() {
			a.expired.Add(1)
			a.traceSpans(req, trace.Span{Name: "abandoned", Start: req.enqueued,
				Dur: time.Since(req.enqueued), Note: "caller deadline expired during wait"})
		}
		return nil, fmt.Errorf("%w: %v", ErrDeadlineExceeded, ctx.Err())
	}
}

// InferCtx runs one query in-process under a context, bypassing TCP but
// using the same batching and worker machinery.
func (s *Server) InferCtx(ctx context.Context, appName string, in []float32) ([]float32, error) {
	return s.dispatch(ctx, appName, in)
}

// Infer runs one query in-process without a deadline. Useful for
// embedded deployments and tests.
func (s *Server) Infer(appName string, in []float32) ([]float32, error) {
	return s.dispatch(context.Background(), appName, in)
}

// Close stops the server gracefully: it stops accepting new queries and
// connections, lets batches already under assembly run to completion,
// fails queued stragglers with ErrShuttingDown, and waits for every
// worker to exit. Outstanding Infer calls are always unblocked — with a
// result if their batch was in flight, with an error otherwise.
func (s *Server) Close() {
	s.mu.Lock()
	select {
	case <-s.closing:
		s.mu.Unlock()
		<-s.done
		return
	default:
	}
	// Close the admission gates first: once every in-flight enqueue has
	// drained past its RLock, no new request can appear on any reqCh.
	// Holding s.mu keeps this atomic with respect to Register, so no
	// app can slip in between the gate sweep and the closing signal.
	apps := make([]*app, 0, len(s.apps))
	for _, a := range s.apps {
		a.gateMu.Lock()
		a.closed = true
		a.gateMu.Unlock()
		a.stopOnce.Do(func() { close(a.closing) })
		apps = append(apps, a)
	}
	close(s.closing)
	if s.listener != nil {
		s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	for _, a := range apps {
		a.wg.Wait()
	}
	close(s.done)
}
