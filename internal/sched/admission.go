package sched

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config declares one application's scheduling contract.
type Config struct {
	// SLO is the target p99 latency. Zero disables scheduling for the
	// app (static batching, no admission control).
	SLO time.Duration
	// Priority is the app's tenant class at the execution gate.
	Priority Priority
	// MaxBatch bounds the adaptive batch size (the runner's capacity).
	// Zero means 64.
	MaxBatch int
	// Workers is how many concurrent workers drain the app's batches
	// (the admission estimate divides queued work across them).
	// Zero means 1.
	Workers int
	// Safety derates the admission budget: a query is admitted only
	// while the delay estimate fits within Safety×budget, leaving
	// room for estimation error before the SLO is breached.
	// Zero means 0.8.
	Safety float64
	// EvalEvery is how many completions pass between AIMD steps.
	// Zero means 64.
	EvalEvery int
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Safety <= 0 || c.Safety > 1 {
		c.Safety = 0.8
	}
	if c.EvalEvery <= 0 {
		c.EvalEvery = 64
	}
	return c
}

// recentSize bounds the latency ring the AIMD's p99 is computed over:
// large enough that a p99 is meaningful, small enough that the
// controller reacts to the last few batches rather than ancient
// history.
const recentSize = 256

// ewmaAlpha is the smoothing factor of the per-instance service-time
// estimate: ~1/8 weight per new batch observation.
const ewmaAlpha = 0.125

// Controller runs one application's scheduling feedback loop. The
// serving path calls Admit before enqueue, Dropped for admitted
// queries that die before execution, ObserveBatch and Executed after a
// batch's forward pass, and Complete per answered query; BatchSize
// replaces the app's static batch cap.
type Controller struct {
	cfg Config

	queued   atomic.Int64 // instances admitted but not yet executed
	admitted atomic.Int64 // queries past admission
	rejected atomic.Int64 // queries refused at admission
	pressure atomic.Int64 // rejections since the last AIMD step

	mu        sync.Mutex
	aimd      *AIMD
	perInstNS float64 // EWMA of forward nanoseconds per instance
	recent    [recentSize]time.Duration
	recentN   int // total completions ever recorded
	sinceEval int
}

// NewController creates the feedback loop for one app. It panics if
// the config declares no SLO — a static app should not construct one.
func NewController(cfg Config) *Controller {
	if cfg.SLO <= 0 {
		panic("sched: NewController requires a positive SLO")
	}
	cfg = cfg.withDefaults()
	return &Controller{cfg: cfg, aimd: NewAIMD(AIMDConfig{Max: cfg.MaxBatch, SLO: cfg.SLO})}
}

// SLO returns the declared target p99.
func (c *Controller) SLO() time.Duration { return c.cfg.SLO }

// Priority returns the app's tenant class.
func (c *Controller) Priority() Priority { return c.cfg.Priority }

// BatchSize returns the current cap on a batch, in instances. Batching
// is work-conserving (a free worker takes whatever is pending), so this
// is the size a batch grows to while every worker is busy, not a size
// it waits for.
func (c *Controller) BatchSize() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.aimd.Batch()
}

// estimate computes the delay a query of n instances would see if
// admitted now: everything already admitted plus itself must drain
// through the worker pool at the observed per-instance service time.
// Batching is work-conserving, so no timer adds to it: on an idle
// replica the query is served in one forward pass, on a busy one it
// waits for a worker, which is this backlog term.
func (c *Controller) estimate(perInstNS float64, n int) time.Duration {
	return time.Duration((float64(c.queued.Load()) + float64(n)) * perInstNS / float64(c.cfg.Workers))
}

// Admit decides whether a query of n instances can still meet budget
// (the caller's remaining deadline, or the app SLO when the query
// carries none). Admission increments the queued-instance account;
// every admitted query must later be balanced by exactly one Executed
// or Dropped. A cold controller (no service-time observation yet)
// admits everything.
func (c *Controller) Admit(budget time.Duration, n int) (time.Duration, bool) {
	c.mu.Lock()
	perInst := c.perInstNS
	c.mu.Unlock()
	est := c.estimate(perInst, n)
	if perInst > 0 && float64(est) > c.cfg.Safety*float64(budget) {
		c.rejected.Add(1)
		c.pressure.Add(1)
		return est, false
	}
	c.admitted.Add(1)
	c.queued.Add(int64(n))
	return est, true
}

// Executed balances Admit for a batch whose forward pass ended
// (finished or failed). Settling at completion (not pickup)
// deliberately leaves the in-flight batch in the queued account: its
// residual service time is real wait for everything admitted behind
// it, and counting it fully errs on the conservative side — an
// estimate that ignored it would admit queries whose true delay lands
// past the SLO by up to one batch service.
func (c *Controller) Executed(n int) { c.queued.Add(int64(-n)) }

// Dropped balances Admit for instances that died before execution
// (expired at assembly, or failed by the shutdown drain).
func (c *Controller) Dropped(n int) { c.queued.Add(int64(-n)) }

// ObserveBatch feeds one forward pass's duration and instance count
// into the service-time EWMA the admission estimate uses.
func (c *Controller) ObserveBatch(forward time.Duration, instances int) {
	if instances <= 0 || forward <= 0 {
		return
	}
	sample := float64(forward) / float64(instances)
	c.mu.Lock()
	if c.perInstNS == 0 {
		c.perInstNS = sample
	} else {
		c.perInstNS += ewmaAlpha * (sample - c.perInstNS)
	}
	c.mu.Unlock()
}

// Complete feeds one answered query's server-side latency (enqueue →
// response) and, every EvalEvery completions, steps the AIMD on the
// p99 of the recent window.
func (c *Controller) Complete(latency time.Duration) {
	c.mu.Lock()
	c.recent[c.recentN%recentSize] = latency
	c.recentN++
	c.sinceEval++
	if c.sinceEval >= c.cfg.EvalEvery {
		c.sinceEval = 0
		c.aimd.Observe(c.recentP99Locked(), c.pressure.Swap(0) > 0)
	}
	c.mu.Unlock()
}

// recentP99Locked computes the p99 over the recent-latency ring.
func (c *Controller) recentP99Locked() time.Duration {
	n := c.recentN
	if n > recentSize {
		n = recentSize
	}
	if n == 0 {
		return 0
	}
	buf := make([]time.Duration, n)
	copy(buf, c.recent[:n])
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := (n*99 + 99) / 100
	if idx > n {
		idx = n
	}
	return buf[idx-1]
}

// Info is a point-in-time snapshot of one app's scheduler, rendered by
// the "sched" control verb and scraped by the admin plane.
type Info struct {
	SLO      time.Duration
	Priority Priority
	Batch    int           // current batch cap (instances)
	Admitted int64         // queries past admission since start
	Rejected int64         // queries refused at admission since start
	Queued   int64         // instances admitted but not yet executed
	EstWait  time.Duration // delay estimate a 1-instance query would see now
	P99      time.Duration // p99 server-side latency over the recent window
}

// AdmissionRate is the fraction of admission decisions that admitted,
// in [0,1]; 1 with no decisions yet.
func (i Info) AdmissionRate() float64 {
	total := i.Admitted + i.Rejected
	if total == 0 {
		return 1
	}
	return float64(i.Admitted) / float64(total)
}

// Snapshot captures the controller's live state.
func (c *Controller) Snapshot() Info {
	c.mu.Lock()
	perInst := c.perInstNS
	batch := c.aimd.Batch()
	p99 := c.recentP99Locked()
	c.mu.Unlock()
	return Info{
		SLO:      c.cfg.SLO,
		Priority: c.cfg.Priority,
		Batch:    batch,
		Admitted: c.admitted.Load(),
		Rejected: c.rejected.Load(),
		Queued:   c.queued.Load(),
		EstWait:  c.estimate(perInst, 1),
		P99:      p99,
	}
}

// String renders the Info as the "sched" control verb's reply: ordered
// key=value fields, one line. ParseInfo inverts it.
func (i Info) String() string {
	return fmt.Sprintf(
		"slo=%s priority=%s batch=%d admitted=%d rejected=%d queued=%d est_wait=%s p99=%s admission_rate=%.3f",
		i.SLO, i.Priority, i.Batch,
		i.Admitted, i.Rejected, i.Queued, i.EstWait, i.P99, i.AdmissionRate())
}

// ParseInfo parses a "sched" control verb reply back into an Info.
// Unknown keys are ignored (a newer server may add fields, an older one
// sends the retired window= field); malformed values for known keys are
// errors. The derived admission_rate field is ignored — it is
// recomputed from the counters.
func ParseInfo(s string) (Info, error) {
	var info Info
	for _, field := range strings.Fields(s) {
		k, v, ok := strings.Cut(field, "=")
		if !ok {
			return Info{}, fmt.Errorf("sched: malformed field %q", field)
		}
		var err error
		switch k {
		case "slo":
			info.SLO, err = time.ParseDuration(v)
		case "priority":
			info.Priority, err = ParsePriority(v)
		case "batch":
			info.Batch, err = strconv.Atoi(v)
		case "admitted":
			info.Admitted, err = strconv.ParseInt(v, 10, 64)
		case "rejected":
			info.Rejected, err = strconv.ParseInt(v, 10, 64)
		case "queued":
			info.Queued, err = strconv.ParseInt(v, 10, 64)
		case "est_wait":
			info.EstWait, err = time.ParseDuration(v)
		case "p99":
			info.P99, err = time.ParseDuration(v)
		}
		if err != nil {
			return Info{}, fmt.Errorf("sched: bad %s value %q: %v", k, v, err)
		}
	}
	if info.SLO < 0 || info.Batch < 0 || info.EstWait < 0 || info.P99 < 0 {
		return Info{}, fmt.Errorf("sched: negative field in %q", s)
	}
	return info, nil
}
