// Package chaos is the control plane's proof layer: a deterministic
// fault-injection harness that drives an in-process DjiNN fleet
// through scripted replica kills, slowdowns, and partitions while a
// query stream runs, and accounts for every single issued query. The
// invariant under test is the serving tier's core promise — a query is
// answered, shed, or expired, never silently lost — and it must hold
// while the control plane is actively moving applications between
// replicas.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"djinn/internal/controlplane"
	"djinn/internal/nn"
	"djinn/internal/router"
	"djinn/internal/service"
	"djinn/internal/tensor"
)

// EventKind is one fault class.
type EventKind int

const (
	// Kill makes every query to the replica fail like a dead process
	// (transport error) until the fault heals.
	Kill EventKind = iota
	// Slow delays every answer from the replica by Event.Delay.
	Slow
	// Partition behaves like Kill — the replica is unreachable — but
	// the replica's server keeps running; on heal it needs no revive
	// warm-up.
	Partition
)

func (k EventKind) String() string {
	switch k {
	case Kill:
		return "kill"
	case Slow:
		return "slow"
	case Partition:
		return "partition"
	default:
		return fmt.Sprintf("event(%d)", int(k))
	}
}

// Event is one scripted fault: at At after the run starts, Target
// misbehaves per Kind for For, then heals (and is revived in the
// control plane).
type Event struct {
	At     time.Duration
	Kind   EventKind
	Target string
	For    time.Duration
	Delay  time.Duration // Slow only: added latency per query
}

// AppSpec declares one application served by the fleet.
type AppSpec struct {
	Name  string
	Count int           // replicas (default 2)
	SLO   time.Duration // enables the scheduler (default 40ms)
}

// Options configures a harness run.
type Options struct {
	Replicas int       // fleet size (default 3)
	Apps     []AppSpec // default one app "tiny"
	Schedule []Event

	Clients  int           // closed-loop query workers (default 4)
	Duration time.Duration // load duration (default 500ms)
	Deadline time.Duration // per-query deadline (default 100ms)

	Tick       time.Duration // control loop period (default 10ms)
	Autoscale  bool          // enable the autoscaler (Min 2)
	DrainDelay time.Duration // default Deadline + 20ms

	Logf func(format string, args ...any) // default: discard
}

// Result is a run's full accounting. Lost is the balance check:
// Issued − (OK + Shed + Expired + Errors); the zero-lost invariant is
// Lost == 0 AND Errors == 0.
type Result struct {
	Issued, OK, Shed, Expired, Errors int64
	Lost                              int64

	Moves         int64         // app placements changed across the run
	Rebalances    int64         // reconcile passes
	LastRebalance time.Duration // duration of the last moving reconcile
	Timeline      []string      // human-readable fault/rebalance log
}

func (r Result) String() string {
	return fmt.Sprintf("issued=%d ok=%d shed=%d expired=%d errors=%d lost=%d moves=%d",
		r.Issued, r.OK, r.Shed, r.Expired, r.Errors, r.Lost, r.Moves)
}

// faultBackend wraps a replica's server with an injectable fault mode.
type faultBackend struct {
	srv  *service.Server
	down atomic.Bool  // Kill or Partition active
	slow atomic.Int64 // Slow active: delay in nanoseconds
}

func (f *faultBackend) Infer(app string, in []float32) ([]float32, error) {
	return f.InferCtx(context.Background(), app, in)
}

func (f *faultBackend) InferCtx(ctx context.Context, app string, in []float32) ([]float32, error) {
	if f.down.Load() {
		return nil, fmt.Errorf("%w: replica unreachable (injected)", service.ErrTransport)
	}
	if d := f.slow.Load(); d > 0 {
		t := time.NewTimer(time.Duration(d))
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, fmt.Errorf("%w: %v", service.ErrDeadlineExceeded, ctx.Err())
		case <-t.C:
		}
	}
	return f.srv.InferCtx(ctx, app, in)
}

func tinyNet(name string, seed uint64) *nn.Net {
	rng := tensor.NewRNG(seed)
	n := nn.NewNet(name, nn.KindDNN, 8)
	n.Add(nn.NewFC("fc1", rng, 8, 16)).
		Add(nn.NewReLU("relu")).
		Add(nn.NewFC("fc2", rng, 16, 4)).
		Add(nn.NewSoftmax("prob"))
	return n
}

func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = 3
	}
	if len(o.Apps) == 0 {
		o.Apps = []AppSpec{{Name: "tiny"}}
	}
	for i := range o.Apps {
		if o.Apps[i].Count <= 0 {
			o.Apps[i].Count = 2
		}
		if o.Apps[i].SLO <= 0 {
			o.Apps[i].SLO = 40 * time.Millisecond
		}
	}
	if o.Clients <= 0 {
		o.Clients = 4
	}
	if o.Duration <= 0 {
		o.Duration = 500 * time.Millisecond
	}
	if o.Deadline <= 0 {
		o.Deadline = 100 * time.Millisecond
	}
	if o.Tick <= 0 {
		o.Tick = 10 * time.Millisecond
	}
	if o.DrainDelay <= 0 {
		o.DrainDelay = o.Deadline + 20*time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// Fleet is the assembled in-process cluster a harness run drives.
type Fleet struct {
	opts    Options
	rt      *router.Router
	ctl     *controlplane.Controller
	servers map[string]*service.Server
	faults  map[string]*faultBackend

	mu       sync.Mutex
	timeline []string
	start    time.Time
}

func (f *Fleet) note(format string, args ...any) {
	f.mu.Lock()
	f.timeline = append(f.timeline, fmt.Sprintf("%6s %s",
		time.Since(f.start).Round(time.Millisecond), fmt.Sprintf(format, args...)))
	f.mu.Unlock()
	f.opts.Logf(format, args...)
}

// NewFleet builds the replicas, router, and controller for opts and
// installs the initial placement. Close the fleet when done.
func NewFleet(opts Options) *Fleet {
	opts = opts.withDefaults()
	f := &Fleet{
		opts:    opts,
		servers: map[string]*service.Server{},
		faults:  map[string]*faultBackend{},
		start:   time.Now(),
	}
	f.rt = router.New(router.Config{
		Policy: router.LeastOutstanding,
		Health: router.HealthConfig{
			FailureThreshold: 2,
			ProbeInterval:    20 * time.Millisecond,
			MaxProbeInterval: 100 * time.Millisecond,
		},
	})

	apps := make([]string, len(opts.Apps))
	nets := map[string]*nn.Net{}
	counts := map[string]int{}
	var slo time.Duration
	for i, spec := range opts.Apps {
		apps[i] = spec.Name
		nets[spec.Name] = tinyNet(spec.Name, uint64(i)+1)
		counts[spec.Name] = spec.Count
		if spec.SLO > slo {
			slo = spec.SLO
		}
	}

	mapper := controlplane.NewMapper(controlplane.MapperConfig{
		Policy:       controlplane.LeastLoaded{},
		DefaultCount: 2,
		CanaryWeight: 50,
	})
	for app, n := range counts {
		mapper.SetCount(app, n)
	}
	var as *controlplane.Autoscaler
	if opts.Autoscale {
		as = controlplane.NewAutoscaler(controlplane.AutoscaleConfig{
			Min: 2, Max: opts.Replicas,
			UpAfter: 2, DownAfter: 8,
			UpCooldown:   4 * opts.Tick,
			DownCooldown: 20 * opts.Tick,
		})
		for app, n := range counts {
			as.SetCount(app, n)
		}
	}
	f.ctl = controlplane.NewController(controlplane.Config{
		Router:     f.rt,
		Mapper:     mapper,
		Autoscaler: as,
		Apps:       apps,
		DeadAfter:  2,
		DrainDelay: opts.DrainDelay,
		Logf: func(format string, args ...any) {
			f.note(format, args...)
		},
	})

	for i := 0; i < opts.Replicas; i++ {
		id := fmt.Sprintf("r%d", i)
		srv := service.NewServer()
		srv.SetLogger(func(string, ...any) {})
		fb := &faultBackend{srv: srv}
		f.servers[id] = srv
		f.faults[id] = fb
		if err := f.rt.AddBackend(id, fb); err != nil {
			panic(err) // duplicate IDs cannot happen: generated above
		}
		cfg := service.AppConfig{
			BatchInstances: 8, Workers: 2, MaxPending: 256, SLO: slo,
		}
		f.ctl.Join(controlplane.NewServerMember(id, srv, nets, cfg))
	}
	f.ctl.Reconcile()
	return f
}

// Router exposes the data path (the experiment drives extra load
// through it).
func (f *Fleet) Router() *router.Router { return f.rt }

// Controller exposes the control plane.
func (f *Fleet) Controller() *controlplane.Controller { return f.ctl }

// Close tears the fleet down: controller loop, drains, router pools,
// replica servers.
func (f *Fleet) Close() {
	f.ctl.Stop()
	f.rt.Close()
	for _, srv := range f.servers {
		srv.Close()
	}
}

// apply turns a fault on, returning the heal function.
func (f *Fleet) apply(ev Event) func() {
	fb, ok := f.faults[ev.Target]
	if !ok {
		f.note("chaos: event targets unknown replica %s", ev.Target)
		return func() {}
	}
	switch ev.Kind {
	case Kill, Partition:
		fb.down.Store(true)
	case Slow:
		d := ev.Delay
		if d <= 0 {
			d = f.opts.Deadline
		}
		fb.slow.Store(int64(d))
	}
	f.note("chaos: %s %s for %v", ev.Kind, ev.Target, ev.For)
	return func() {
		fb.down.Store(false)
		fb.slow.Store(0)
		f.ctl.Revive(ev.Target)
		f.note("chaos: %s healed", ev.Target)
	}
}

// Run executes the scripted schedule against a fresh fleet while
// Clients closed-loop workers issue queries, and returns the full
// accounting. The schedule clock starts when the load starts.
func Run(opts Options) Result {
	opts = opts.withDefaults()
	f := NewFleet(opts)
	defer f.Close()
	f.ctl.Run(opts.Tick)

	var issued, ok, shed, expired, errs atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Fault executor: events fire in At order; each heals after For.
	schedule := append([]Event(nil), opts.Schedule...)
	sort.SliceStable(schedule, func(i, j int) bool { return schedule[i].At < schedule[j].At })
	var heals sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		for _, ev := range schedule {
			wait := ev.At - time.Since(start)
			if wait > 0 {
				select {
				case <-stop:
					return
				case <-time.After(wait):
				}
			}
			heal := f.apply(ev)
			heals.Add(1)
			dur := ev.For
			go func() {
				defer heals.Done()
				time.Sleep(dur)
				heal()
			}()
		}
	}()

	for c := 0; c < opts.Clients; c++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			in := make([]float32, 8)
			for i := range in {
				in[i] = float32(worker + i)
			}
			n := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				app := opts.Apps[(worker+n)%len(opts.Apps)].Name
				n++
				issued.Add(1)
				ctx, cancel := context.WithTimeout(context.Background(), opts.Deadline)
				_, err := f.rt.InferCtx(ctx, app, in)
				cancel()
				switch {
				case err == nil:
					ok.Add(1)
				case errors.Is(err, service.ErrOverloaded):
					shed.Add(1)
				case errors.Is(err, service.ErrDeadlineExceeded),
					errors.Is(err, context.DeadlineExceeded):
					expired.Add(1)
				default:
					errs.Add(1)
					f.note("chaos: unaccounted error for %s: %v", app, err)
				}
			}
		}(c)
	}

	time.Sleep(opts.Duration)
	close(stop)
	wg.Wait()
	heals.Wait()
	f.ctl.Stop()

	snap := f.ctl.Snapshot()
	res := Result{
		Issued: issued.Load(), OK: ok.Load(), Shed: shed.Load(),
		Expired: expired.Load(), Errors: errs.Load(),
		Moves: snap.Moves, Rebalances: snap.Rebalances,
		LastRebalance: snap.LastRebalance,
	}
	res.Lost = res.Issued - (res.OK + res.Shed + res.Expired + res.Errors)
	f.mu.Lock()
	res.Timeline = append([]string(nil), f.timeline...)
	f.mu.Unlock()
	return res
}
