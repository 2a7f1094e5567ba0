package experiments

import (
	"fmt"
	"time"

	"djinn/internal/nn"
	"djinn/internal/router"
	"djinn/internal/service"
	"djinn/internal/tensor"
	"djinn/internal/workload"
)

// batchPacedLayer charges a fixed per-batch launch cost plus a
// per-instance cost, then passes its input through unchanged — the
// canonical accelerator cost shape behind the paper's batching result:
// a big batch amortises the launch, so throughput hinges on batch size
// while per-query latency grows with it. It is the model under the
// scheduler sweep: a flat per-instance cost would leave no batching
// tradeoff to schedule.
type batchPacedLayer struct {
	fixed, per time.Duration
}

func (batchPacedLayer) Name() string                                            { return "batch-paced" }
func (batchPacedLayer) Kind() string                                            { return "batch-paced" }
func (batchPacedLayer) OutShape(in []int) ([]int, error)                        { return in, nil }
func (batchPacedLayer) Params() []*nn.Param                                     { return nil }
func (batchPacedLayer) Kernels(in []int, batch int, ks []nn.Kernel) []nn.Kernel { return ks }
func (l batchPacedLayer) Forward(ctx *nn.Ctx, in, out *tensor.Tensor) {
	time.Sleep(l.fixed + time.Duration(in.Shape()[0])*l.per)
	copy(out.Data(), in.Data())
}

// schedNet is the scheduler sweep's model: the bench FC stack with a
// batch-paced stage, identical weights on every replica.
func schedNet(seed uint64, fixed, per time.Duration) *nn.Net {
	rng := tensor.NewRNG(seed)
	n := nn.NewNet("sched-bench", nn.KindDNN, 8)
	n.Add(nn.NewFC("fc1", rng, 8, 16)).
		Add(nn.NewReLU("relu")).
		Add(batchPacedLayer{fixed: fixed, per: per}).
		Add(nn.NewFC("fc2", rng, 16, 4)).
		Add(nn.NewSoftmax("prob"))
	return n
}

// SchedConfig is one contender in the scheduler sweep: a name and the
// AppConfig every replica registers the bench model under. A config
// with App.SLO > 0 runs the adaptive scheduler; otherwise it is one of
// the static BatchInstances caps.
type SchedConfig struct {
	Name string
	App  service.AppConfig
}

// SchedCell is one (config, offered load) measurement of the sweep.
type SchedCell struct {
	Config  string
	Rate    float64 // offered fleet-wide arrival rate, queries/sec
	Skipped bool    // ladder cut short after consecutive failures
	Res     workload.DriveResult
	// Stats sums the replica-side counter deltas over the measured
	// window; its ShedAdmission/ShedExpired split shows *where* a
	// config loses queries under overload. Router retries mean one
	// client-visible shed can appear as rejects on several replicas.
	Stats service.Stats
	Batch int // adaptive: live batch cap after the run (0 static)
	// Sustainable: the config held the p99 SLO while serving ≥99% of
	// offered queries. Deadline expiry censors the p99 of what *was*
	// served, so the goodput bound is what makes the check honest.
	Sustainable bool
}

// SchedSweepOptions sizes the sweep; RenderSched runs the full matrix,
// tests shrink it.
type SchedSweepOptions struct {
	Replicas int
	SLO      time.Duration // declared target p99, the grading line
	// Deadline is the per-query client deadline (0 = SLO). Keeping it a
	// notch above the SLO matters for measurement honesty: a deadline
	// exactly at the SLO censors the completed-latency distribution right
	// at the grading line, hiding every would-have-missed completion as
	// an expiry instead of a p99 miss.
	Deadline    time.Duration
	Rates       []float64     // offered-load ladder, queries/sec fleet-wide
	Warmup      time.Duration // unmeasured lead-in (adaptive climb, queue fill)
	Measure     time.Duration
	MaxInflight int
	Fixed, Per  time.Duration // batch-paced layer costs
}

// schedSustainable grades one cell: p99 within SLO and at most 1% of
// offered queries lost to shedding, expiry or errors.
func schedSustainable(slo time.Duration, r workload.DriveResult) bool {
	if r.Queries == 0 {
		return false
	}
	lost := r.Shed + r.Expired + r.Errors
	return r.Latency.P99 <= slo && float64(lost) <= 0.01*float64(r.Issued())
}

// statsDelta subtracts the warmup-era counters from a post-measure
// snapshot, leaving the measured window's worth.
func statsDelta(after, before service.Stats) service.Stats {
	return service.Stats{
		Queries:       after.Queries - before.Queries,
		Instances:     after.Instances - before.Instances,
		Batches:       after.Batches - before.Batches,
		Errors:        after.Errors - before.Errors,
		ShedAdmission: after.ShedAdmission - before.ShedAdmission,
		ShedExpired:   after.ShedExpired - before.ShedExpired,
		Expired:       after.Expired - before.Expired,
	}
}

// fleetStats sums one app's counters across the fleet's replicas.
func fleetStats(servers []*service.Server, name string) service.Stats {
	var sum service.Stats
	for _, srv := range servers {
		st, _ := srv.StatsFor(name)
		sum.Queries += st.Queries
		sum.Instances += st.Instances
		sum.Batches += st.Batches
		sum.Errors += st.Errors
		sum.ShedAdmission += st.ShedAdmission
		sum.ShedExpired += st.ShedExpired
		sum.Expired += st.Expired
	}
	return sum
}

// SchedSweep drives each scheduling config up the offered-load ladder
// on a fresh router fleet per cell: open-loop Poisson arrivals with
// per-query client deadlines, a warmup drive that is measured by nobody
// (it fills queues and lets the adaptive controller climb), then the
// measured drive. A config's ladder stops after two consecutive
// unsustainable rates — one to find the cliff, one to confirm it —
// since offered load only grows from there.
func SchedSweep(cfgs []SchedConfig, opts SchedSweepOptions) []SchedCell {
	if opts.Deadline <= 0 {
		opts.Deadline = opts.SLO
	}
	var cells []SchedCell
	payload := func(rng *tensor.RNG) []float32 {
		in := make([]float32, 8)
		rng.FillNorm(in, 0, 0.5)
		return in
	}
	for _, cfg := range cfgs {
		bad := 0
		for _, rate := range opts.Rates {
			if bad >= 2 {
				cells = append(cells, SchedCell{Config: cfg.Name, Rate: rate, Skipped: true})
				continue
			}
			rt := router.New(router.Config{})
			servers := make([]*service.Server, 0, opts.Replicas)
			for i := 0; i < opts.Replicas; i++ {
				srv := service.NewServer()
				srv.SetLogger(func(string, ...any) {})
				if err := srv.Register("bench", schedNet(1, opts.Fixed, opts.Per), cfg.App); err != nil {
					panic(err)
				}
				servers = append(servers, srv)
				if err := rt.AddBackend(fmt.Sprintf("replica-%d", i), srv); err != nil {
					panic(err)
				}
			}
			drive := func(d time.Duration) workload.DriveResult {
				return workload.DrivePoissonOptions(rt, "bench", payload, rate, opts.MaxInflight, workload.DriveOptions{
					Duration: d, Deadline: opts.Deadline, SLO: opts.SLO,
				})
			}
			if opts.Warmup > 0 {
				drive(opts.Warmup)
			}
			base := fleetStats(servers, "bench")
			res := drive(opts.Measure)
			cell := SchedCell{Config: cfg.Name, Rate: rate, Res: res}
			cell.Stats = statsDelta(fleetStats(servers, "bench"), base)
			if cfg.App.SLO > 0 {
				if info, ok := servers[0].SchedFor("bench"); ok {
					cell.Batch = info.Batch
				}
			}
			rt.Close()
			for _, srv := range servers {
				srv.Close()
			}
			cell.Sustainable = schedSustainable(opts.SLO, res)
			if cell.Sustainable {
				bad = 0
			} else {
				bad++
			}
			cells = append(cells, cell)
		}
	}
	return cells
}

// SchedContenders is the sweep's standard field: static batch caps —
// how large a batch may grow while its worker is busy, the one thing a
// static config commits to under work-conserving batching — against
// the adaptive scheduler declaring only an SLO.
func SchedContenders(slo time.Duration) []SchedConfig {
	return []SchedConfig{
		{"static-1", service.AppConfig{BatchInstances: 1, Workers: 1}},
		{"static-8", service.AppConfig{BatchInstances: 8, Workers: 1}},
		{"static-32", service.AppConfig{BatchInstances: 32, Workers: 1}},
		{"adaptive", service.AppConfig{BatchInstances: 64, Workers: 1, SLO: slo}},
	}
}

// maxSustained returns the highest rate each config sustained.
func maxSustained(cells []SchedCell) map[string]float64 {
	best := map[string]float64{}
	for _, c := range cells {
		if c.Sustainable && c.Rate > best[c.Config] {
			best[c.Config] = c.Rate
		}
	}
	return best
}

// RenderSched prints the scheduler study: adaptive batching plus
// admission control against the static configurations, on a 3-replica
// fleet serving the batch-paced bench model under open-loop Poisson
// load with per-query deadlines at the SLO.
func RenderSched() string {
	const slo = 50 * time.Millisecond
	cfgs := SchedContenders(slo)
	cells := SchedSweep(cfgs, SchedSweepOptions{
		Replicas:    3,
		SLO:         slo,
		Deadline:    slo + slo/5,
		Rates:       []float64{400, 800, 1600, 2400, 3600},
		Warmup:      4 * time.Second,
		Measure:     1500 * time.Millisecond,
		MaxInflight: 512,
		Fixed:       4 * time.Millisecond,
		Per:         800 * time.Microsecond,
	})
	out := "Extension: SLO-aware scheduler — adaptive batch cap + admission control vs static caps\n"
	out += fmt.Sprintf("(3-replica fleet, batch-paced model: 4ms launch + 0.8ms/instance, p99 SLO %s, client deadline 1.2x SLO, open-loop Poisson)\n", slo)
	t := &table{header: []string{"config", "offered q/s", "ok", "p99", "SLO att", "shed_adm", "shed_exp", "batch", "sustained"}}
	for _, c := range cells {
		if c.Skipped {
			t.add(c.Config, f0(c.Rate), "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		batch := "-"
		if c.Batch > 0 {
			batch = fmt.Sprint(c.Batch)
		}
		mark := "no"
		if c.Sustainable {
			mark = "yes"
		}
		t.add(c.Config, f0(c.Rate), fmt.Sprint(c.Res.Queries),
			c.Res.Latency.P99.Round(100*time.Microsecond).String(),
			fmt.Sprintf("%.1f%%", 100*c.Res.SLOAttainment()),
			fmt.Sprint(c.Stats.ShedAdmission), fmt.Sprint(c.Stats.ShedExpired),
			batch, mark)
	}
	out += t.String()

	best := maxSustained(cells)
	var bestStatic float64
	var bestStaticName string
	for _, cfg := range cfgs {
		if cfg.App.SLO > 0 {
			continue
		}
		if best[cfg.Name] > bestStatic {
			bestStatic, bestStaticName = best[cfg.Name], cfg.Name
		}
	}
	adaptive := best["adaptive"]
	switch {
	case bestStatic == 0 && adaptive == 0:
		out += "no config sustained the SLO at any offered rate\n"
	case bestStatic == 0:
		out += fmt.Sprintf("only the adaptive scheduler sustained the SLO (up to %.0f q/s)\n", adaptive)
	default:
		out += fmt.Sprintf("best static (%s) sustains %.0f q/s; adaptive sustains %.0f q/s — %.2fx\n",
			bestStaticName, bestStatic, adaptive, adaptive/bestStatic)
	}
	out += "(batching is work-conserving, so a cap binds only while the worker is busy: a\n" +
		" generous static cap sizes its batches by load and walks the latency-throughput\n" +
		" frontier by itself, and a small one is just a capacity limit — it forfeits\n" +
		" launch amortisation exactly when the replica saturates. What the scheduler adds\n" +
		" shows past fleet capacity: its admission controller rejects before the queue\n" +
		" (shed_adm, not shed_exp), so what it serves still meets the SLO where a static\n" +
		" config's queue collapses)\n"
	return out
}
