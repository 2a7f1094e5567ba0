package timeseries

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"djinn/internal/metrics"
	"djinn/internal/modelstore"
	"djinn/internal/sched"
	"djinn/internal/service"
)

// Replica is the sampling surface the collector needs from each fleet
// member. *service.Server satisfies it; tests substitute fakes.
type Replica interface {
	Apps() []string
	StatsFor(app string) (service.Stats, bool)
	SchedFor(app string) (sched.Info, bool)
	RequestHistogram(app string) (metrics.HistogramSnapshot, bool)
	ModelStats() (modelstore.Stats, bool)
}

// Target names one replica for collection.
type Target struct {
	Replica string
	Server  Replica
}

// Config parameterises a Collector.
type Config struct {
	// Interval is the sampling period (default 1s). Rates are computed
	// against this nominal interval, so series stay fixed-interval even
	// when the sampling goroutine is scheduled late.
	Interval time.Duration
	// Slots bounds each series ring (default 360 — six minutes of
	// 1s-interval history).
	Slots int
	// Targets are the replicas to sample.
	Targets []Target
	// SLO optionally pins an app's latency objective. When absent the
	// collector reads the replica scheduler's configured SLO.
	SLO map[string]time.Duration
}

// repKey identifies one (replica, app) sampling stream.
type repKey struct{ replica, app string }

// cumState is the previous cumulative snapshot a delta is taken from.
type cumState struct {
	stats service.Stats
	info  sched.Info
	hist  metrics.HistogramSnapshot
}

// ReplicaAppSeries holds one replica's per-app series.
type ReplicaAppSeries struct {
	QPS *Series // served queries per second
	P99 *Series // per-tick p99 seconds from the replica's own histogram delta
}

// AppSeries holds the fleet-wide rollup series for one app.
type AppSeries struct {
	SLO        time.Duration
	QPS        *Series // served queries per second, fleet-wide
	ShedAdm    *Series // admission sheds per second
	ShedExp    *Series // queue-expiry sheds per second
	Errors     *Series // errors per second
	BatchAvg   *Series // mean executed batch size over the tick
	Good       *Series // per-tick in-SLO request count (for burn windows)
	Total      *Series // per-tick total demand (served+shed+errors+expired)
	Attainment *Series // per-tick good/total in [0,1]
	Hist       *HistSeries
}

// Collector periodically samples every target's per-app stats,
// maintains per-replica series, and merges the per-tick histogram
// deltas into fleet rollups. Start it with Run, or drive it manually
// with Sample (tests, experiments with fake clocks).
type Collector struct {
	cfg      Config
	interval time.Duration
	slots    int

	mu       sync.Mutex
	prev     map[repKey]cumState
	perRep   map[repKey]*ReplicaAppSeries
	fleet    map[string]*AppSeries
	resident map[string]*Series // replica → resident model bytes gauge
	ticks    int64

	selfNanos atomic.Int64 // cumulative time spent inside Sample

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewCollector creates a collector (call Run to start the sampling
// loop, or Sample to drive it manually).
func NewCollector(cfg Config) *Collector {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Slots <= 0 {
		cfg.Slots = 360
	}
	return &Collector{
		cfg:      cfg,
		interval: cfg.Interval,
		slots:    cfg.Slots,
		prev:     make(map[repKey]cumState),
		perRep:   make(map[repKey]*ReplicaAppSeries),
		fleet:    make(map[string]*AppSeries),
		resident: make(map[string]*Series),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Interval returns the sampling period.
func (c *Collector) Interval() time.Duration { return c.interval }

// Run samples on the configured interval until Stop.
func (c *Collector) Run() {
	go func() {
		defer close(c.done)
		tick := time.NewTicker(c.interval)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case t := <-tick.C:
				c.Sample(t)
			}
		}
	}()
}

// Stop halts the sampling loop started by Run.
func (c *Collector) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	select {
	case <-c.done:
	case <-time.After(time.Second):
	}
}

// fleetAgg accumulates one tick's deltas across replicas for one app.
type fleetAgg struct {
	served, shedAdm, shedExp, errors, expired int64
	instances, batches                        int64
	slo                                       time.Duration
	hists                                     []metrics.HistogramSnapshot
}

// Sample takes one collection pass stamped at now. The first sight of
// a (replica, app) stream only primes its cumulative baseline; deltas
// flow from the second sample on.
func (c *Collector) Sample(now time.Time) {
	t0 := time.Now()
	defer func() { c.selfNanos.Add(int64(time.Since(t0))) }()

	c.mu.Lock()
	defer c.mu.Unlock()
	c.ticks++
	dt := c.interval.Seconds()
	agg := make(map[string]*fleetAgg)

	for _, tgt := range c.cfg.Targets {
		if tgt.Server == nil {
			continue
		}
		var residentBytes int64
		if ms, ok := tgt.Server.ModelStats(); ok {
			residentBytes = ms.ResidentBytes
		}
		c.gauge(c.resident, tgt.Replica).Push(now, float64(residentBytes))

		for _, app := range tgt.Server.Apps() {
			stats, ok := tgt.Server.StatsFor(app)
			if !ok {
				continue
			}
			info, _ := tgt.Server.SchedFor(app)
			hist, _ := tgt.Server.RequestHistogram(app)
			key := repKey{tgt.Replica, app}
			prev, seen := c.prev[key]
			c.prev[key] = cumState{stats: stats, info: info, hist: hist}
			if !seen || stats.Queries < prev.stats.Queries {
				// First sample or counter reset: prime the baseline only.
				continue
			}

			dq := stats.Queries - prev.stats.Queries
			dhist := hist.Sub(prev.hist)
			rs := c.replicaSeries(key)
			rs.QPS.Push(now, float64(dq)/dt)
			rs.P99.Push(now, dhist.Quantile(0.99).Seconds())

			a := agg[app]
			if a == nil {
				a = &fleetAgg{}
				agg[app] = a
			}
			a.served += dq
			a.shedAdm += stats.ShedAdmission - prev.stats.ShedAdmission
			a.shedExp += stats.ShedExpired - prev.stats.ShedExpired
			a.errors += stats.Errors - prev.stats.Errors
			a.expired += stats.Expired - prev.stats.Expired
			a.instances += stats.Instances - prev.stats.Instances
			a.batches += stats.Batches - prev.stats.Batches
			a.hists = append(a.hists, dhist)
			if slo := c.cfg.SLO[app]; slo > 0 {
				a.slo = slo
			} else if info.SLO > 0 {
				a.slo = info.SLO
			}
		}
	}

	for app, a := range agg {
		fs := c.fleetSeries(app)
		if a.slo > 0 {
			fs.SLO = a.slo
		}
		fs.QPS.Push(now, float64(a.served)/dt)
		fs.ShedAdm.Push(now, float64(a.shedAdm)/dt)
		fs.ShedExp.Push(now, float64(a.shedExp)/dt)
		fs.Errors.Push(now, float64(a.errors)/dt)
		batchAvg := 0.0
		if a.batches > 0 {
			batchAvg = float64(a.instances) / float64(a.batches)
		}
		fs.BatchAvg.Push(now, batchAvg)

		merged, _ := metrics.MergeHistograms(a.hists...)
		fs.Hist.Push(merged)

		total := float64(a.served + a.shedAdm + a.shedExp + a.errors + a.expired)
		good := float64(a.served)
		if fs.SLO > 0 {
			good = merged.CountAtOrBelow(fs.SLO)
			if good > float64(a.served) {
				good = float64(a.served)
			}
		}
		fs.Good.Push(now, good)
		fs.Total.Push(now, total)
		att := 1.0
		if total > 0 {
			att = good / total
		}
		fs.Attainment.Push(now, att)
	}
}

func (c *Collector) gauge(m map[string]*Series, key string) *Series {
	s := m[key]
	if s == nil {
		s = NewSeries(c.slots)
		m[key] = s
	}
	return s
}

func (c *Collector) replicaSeries(key repKey) *ReplicaAppSeries {
	rs := c.perRep[key]
	if rs == nil {
		rs = &ReplicaAppSeries{QPS: NewSeries(c.slots), P99: NewSeries(c.slots)}
		c.perRep[key] = rs
	}
	return rs
}

func (c *Collector) fleetSeries(app string) *AppSeries {
	fs := c.fleet[app]
	if fs == nil {
		fs = &AppSeries{
			QPS:        NewSeries(c.slots),
			ShedAdm:    NewSeries(c.slots),
			ShedExp:    NewSeries(c.slots),
			Errors:     NewSeries(c.slots),
			BatchAvg:   NewSeries(c.slots),
			Good:       NewSeries(c.slots),
			Total:      NewSeries(c.slots),
			Attainment: NewSeries(c.slots),
			Hist:       NewHistSeries(c.slots),
		}
		c.fleet[app] = fs
	}
	return fs
}

// Apps lists the apps with fleet rollups, sorted.
func (c *Collector) Apps() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.fleet))
	for app := range c.fleet {
		out = append(out, app)
	}
	sort.Strings(out)
	return out
}

// App returns one app's fleet rollup series (nil when unknown).
func (c *Collector) App(app string) *AppSeries {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fleet[app]
}

// ReplicaApp returns one replica's series for an app (nil when
// unknown).
func (c *Collector) ReplicaApp(replica, app string) *ReplicaAppSeries {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.perRep[repKey{replica, app}]
}

// ErrorRate reports the fraction of demand that violated the app's SLO
// (shed, errored, expired, or served over-SLO) across the trailing
// window, plus the demand that backed it. ok is false when the app has
// no samples yet; zero demand reports a zero rate.
func (c *Collector) ErrorRate(app string, window time.Duration) (rate, demand float64, ok bool) {
	fs := c.App(app)
	if fs == nil {
		return 0, 0, false
	}
	k := Ticks(window, c.interval)
	if fs.Total.Len() == 0 {
		return 0, 0, false
	}
	total := fs.Total.Sum(k)
	good := fs.Good.Sum(k)
	if total <= 0 {
		return 0, 0, true
	}
	r := 1 - good/total
	if r < 0 {
		r = 0
	}
	return r, total, true
}

// FleetHistogram merges the app's per-tick fleet histograms across the
// trailing window.
func (c *Collector) FleetHistogram(app string, window time.Duration) (metrics.HistogramSnapshot, bool) {
	fs := c.App(app)
	if fs == nil {
		return metrics.HistogramSnapshot{}, false
	}
	return fs.Hist.Merged(Ticks(window, c.interval))
}

// FleetQuantile is the true fleet p-quantile over the trailing window,
// computed from the merged histogram.
func (c *Collector) FleetQuantile(app string, p float64, window time.Duration) time.Duration {
	merged, ok := c.FleetHistogram(app, window)
	if !ok {
		return 0
	}
	return merged.Quantile(p)
}

// Ticks returns how many samples the collector has taken.
func (c *Collector) Ticks() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ticks
}

// SelfTime reports the cumulative wall-clock time spent inside Sample
// — the collector's own cost, exported as djinn_collector_self_seconds
// so its overhead is a measured number rather than an assumption.
func (c *Collector) SelfTime() time.Duration {
	return time.Duration(c.selfNanos.Load())
}

// Dash assembles the JSON-ready dashboard snapshot backing /dash and
// `tonic top`: per-app fleet rollups over the window plus per-replica
// sparkline columns of the last sparkN ticks.
func (c *Collector) Dash(window time.Duration, sparkN int) Dash {
	if sparkN <= 0 {
		sparkN = 30
	}
	k := Ticks(window, c.interval)
	d := Dash{Interval: c.interval, Window: window}

	for _, app := range c.Apps() {
		fs := c.App(app)
		merged, _ := fs.Hist.Merged(k)
		total := fs.Total.Sum(k)
		good := fs.Good.Sum(k)
		att := 1.0
		if total > 0 {
			att = good / total
		}
		qps := 0.0
		if last, ok := fs.QPS.Last(); ok {
			qps = last.Value
		}
		d.Apps = append(d.Apps, AppDash{
			App:         app,
			SLO:         fs.SLO,
			QPS:         qps,
			P50:         merged.Quantile(0.50),
			P99:         merged.Quantile(0.99),
			Attainment:  att,
			ShedRate:    (fs.ShedAdm.Sum(k) + fs.ShedExp.Sum(k)) / float64(k),
			QPSSpark:    fs.QPS.Values(sparkN),
			AttainSpark: fs.Attainment.Values(sparkN),
		})
	}

	c.mu.Lock()
	keys := make([]repKey, 0, len(c.perRep))
	for key := range c.perRep {
		keys = append(keys, key)
	}
	resident := make(map[string]int64, len(c.resident))
	for rep, s := range c.resident {
		if last, ok := s.Last(); ok {
			resident[rep] = int64(last.Value)
		}
	}
	c.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].replica != keys[j].replica {
			return keys[i].replica < keys[j].replica
		}
		return keys[i].app < keys[j].app
	})
	for _, key := range keys {
		rs := c.ReplicaApp(key.replica, key.app)
		if rs == nil {
			continue
		}
		qps := 0.0
		if last, ok := rs.QPS.Last(); ok {
			qps = last.Value
		}
		p99 := 0.0
		if last, ok := rs.P99.Last(); ok {
			p99 = last.Value
		}
		d.Replicas = append(d.Replicas, ReplicaDash{
			Replica:       key.replica,
			App:           key.app,
			QPS:           qps,
			P99:           time.Duration(p99 * float64(time.Second)),
			QPSSpark:      rs.QPS.Values(sparkN),
			ResidentBytes: resident[key.replica],
		})
	}
	return d
}

// Dash is the /dash payload skeleton: the collector fills Apps and
// Replicas; the admin plane layers recent events and alert states on
// top before serialising.
type Dash struct {
	Interval time.Duration `json:"interval_ns"`
	Window   time.Duration `json:"window_ns"`
	Apps     []AppDash     `json:"apps"`
	Replicas []ReplicaDash `json:"replicas"`
}

// AppDash is one app's fleet rollup row.
type AppDash struct {
	App         string        `json:"app"`
	SLO         time.Duration `json:"slo_ns,omitempty"`
	QPS         float64       `json:"qps"`
	P50         time.Duration `json:"p50_ns"`
	P99         time.Duration `json:"p99_ns"`
	Attainment  float64       `json:"attainment"`
	ShedRate    float64       `json:"shed_rate"`
	QPSSpark    []float64     `json:"qps_spark"`
	AttainSpark []float64     `json:"attain_spark"`
}

// ReplicaDash is one replica's per-app column.
type ReplicaDash struct {
	Replica       string        `json:"replica"`
	App           string        `json:"app"`
	QPS           float64       `json:"qps"`
	P99           time.Duration `json:"p99_ns"`
	QPSSpark      []float64     `json:"qps_spark"`
	ResidentBytes int64         `json:"resident_bytes"`
}
