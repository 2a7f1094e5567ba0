// Command djinn-service runs the DjiNN DNN-as-a-service server: it
// loads the requested Tonic Suite models into memory (shared read-only
// across workers, as in the paper) and serves the framed TCP protocol.
//
// Usage:
//
//	djinn-service [-addr :7420] [-apps DIG,POS,NER | -apps all] [-precision float32|int8] [-replicas 1] [-stats 10s] [-admin :7421]
//	djinn-service -export-models dir/ [-apps all] [-model-version 1] [-quantize]
//	djinn-service -verify-models dir/
//	djinn-service -models dir/ [-model-budget 268435456]
//
// -precision selects the kernel backend every registered app's plan
// pool compiles against: float32 is the reference path, int8 the
// quantized path (inspect with `tonic precision`). Any other name exits
// with status 2 before an app is registered.
//
// -export-models writes the selected apps' weights as versioned .djw
// files (one-time export; the files round-trip bit-identically);
// -quantize additionally embeds int8 quantized weight sections so int8
// serving pays no quantization at load.
// -models serves from such a directory instead of building models at
// boot: weights are mmapped on first query and evicted under
// -model-budget, so a node can serve far more registered models than
// fit in its budget (manage at runtime with `tonic models`).
//
// -admin starts the observability plane on a separate HTTP listener:
// Prometheus metrics on /metrics, the Go profiler under /debug/pprof/,
// a JSON slow-query log on /slowlog, and per-request span timelines on
// /trace?id= (send queries with a trace ID to populate them).
//
// With -replicas N > 1 it runs N independent replica servers in one
// process on consecutive ports (addr's port, port+1, ...), sharing one
// read-only copy of each model's weights — the cheap way to stand up a
// local fleet for router experiments (point a router at every port).
//
// Loading all seven models allocates ~850 MB of weights (Table 1);
// start with the smaller models when experimenting.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"djinn"
	"djinn/internal/alerts"
	"djinn/internal/controlplane"
	"djinn/internal/events"
	"djinn/internal/gateway"
	"djinn/internal/models"
	"djinn/internal/nn"
	"djinn/internal/router"
	"djinn/internal/service"
	"djinn/internal/timeseries"
	"djinn/internal/tonic"
	"djinn/internal/workload"
)

func main() {
	addr := flag.String("addr", ":7420", "listen address (first replica; replica i adds i to the port)")
	apps := flag.String("apps", "DIG,POS,CHK,NER", `comma-separated apps (IMC,DIG,FACE,ASR,POS,CHK,NER) or "all"`)
	custom := flag.String("custom", "", "custom model: name=def.netdef[:weights.djnm]")
	replicas := flag.Int("replicas", 1, "number of replica servers to run in this process")
	stats := flag.Duration("stats", 30*time.Second, "stats reporting interval (0 disables)")
	adminAddr := flag.String("admin", "", "admin HTTP listen address serving /metrics, /slowlog, /trace?id=, /debug/pprof/ (empty disables)")
	httpAddr := flag.String("http", "", "HTTP/JSON gateway listen address serving /v1/infer, /v1/pipeline, /v1/apps, /v1/cache, /healthz (empty disables)")
	httpRate := flag.Float64("http-rate", 0, "gateway per-tenant rate limit in requests/second, keyed by X-API-Key (0 disables)")
	httpCacheMB := flag.Int64("http-cache-mb", 64, "gateway response-cache byte budget in MB (negative disables the cache)")
	controlPlane := flag.Bool("controlplane", false, "run the replicas as one managed fleet: a placement-aware front end serves -addr, a controller places apps, autoscales, and routes around dead replicas (use with -replicas N)")
	cpCount := flag.Int("controlplane-count", 2, "replicas the control plane keeps each app on (clamped to -replicas)")
	cpInterval := flag.Duration("controlplane-interval", 500*time.Millisecond, "control-loop tick interval (health scan, autoscale, reconcile)")
	precision := flag.String("precision", "float32", "kernel precision for registered apps: float32 (reference) or int8 (quantized, ~99% top-1 agreement)")
	exportDir := flag.String("export-models", "", "export the selected apps' weights as versioned .djw files into this directory and exit")
	quantize := flag.Bool("quantize", false, "with -export-models: embed int8 quantized weight sections (version-2 .djw), so int8 serving pays no quantization at load")
	verifyDir := flag.String("verify-models", "", "verify every .djw file in this directory (checksums + manifest) and exit")
	modelsDir := flag.String("models", "", "serve models from this directory's .djw files instead of building them (fault-in on first query)")
	modelBudget := flag.Int64("model-budget", 0, "resident model budget in bytes for -models (0 = unbounded)")
	modelVersion := flag.Int("model-version", 1, "model version -export-models stamps into the files")
	flag.Parse()

	if *replicas < 1 {
		fmt.Fprintln(os.Stderr, "-replicas must be >= 1")
		os.Exit(2)
	}
	addrs, err := replicaAddrs(*addr, *replicas)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	prec, err := djinn.ParsePrecision(*precision)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var selected []djinn.App
	if strings.EqualFold(*apps, "all") {
		selected = djinn.Apps
	} else {
		for _, name := range strings.Split(*apps, ",") {
			app, err := djinn.ParseApp(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, app)
		}
	}

	if *exportDir != "" {
		export := djinn.ExportModels
		if *quantize {
			export = djinn.ExportModelsQuantized
		}
		paths, err := export(*exportDir, selected, *modelVersion)
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range paths {
			meta, err := djinn.VerifyModelFile(p)
			if err != nil {
				log.Fatalf("exported file failed verification: %v", err)
			}
			log.Printf("exported %s: %s (%d bytes, %d params)", meta.ID(), p, meta.FileSize, len(meta.Params))
		}
		return
	}
	if *verifyDir != "" {
		if err := verifyModels(*verifyDir); err != nil {
			log.Fatal(err)
		}
		return
	}

	if *controlPlane {
		if *modelsDir != "" || *custom != "" {
			fmt.Fprintln(os.Stderr, "-controlplane manages Tonic apps; it does not combine with -models or -custom")
			os.Exit(2)
		}
		runControlPlane(selected, *addr, *adminAddr, *replicas, *cpCount, *cpInterval, *stats, prec,
			gatewayOpts{addr: *httpAddr, rate: *httpRate, cacheMB: *httpCacheMB})
		return
	}

	// Build every replica before serving: model weights are cached, so
	// N replicas share one read-only copy per app (the paper's
	// weight-sharing, across replica boundaries too). With -models the
	// weights stay on disk instead: each replica attaches a model
	// registry over the same .djw files and faults models in on first
	// query — the mappings are MAP_SHARED, so the replicas still share
	// one page-cache copy per model.
	// The shared event journal attaches before model registration so
	// the loads themselves are the journal's first entries.
	journal := events.New(0)
	servers := make([]*djinn.Server, *replicas)
	for i := range servers {
		srv := djinn.NewServer()
		srv.SetJournal(journal, fmt.Sprintf("replica-%d", i))
		if *custom != "" {
			if err := registerCustom(srv, *custom, prec); err != nil {
				log.Fatal(err)
			}
		}
		if *modelsDir != "" {
			reg := djinn.NewModelRegistry(djinn.ModelRegistryConfig{BudgetBytes: *modelBudget})
			srv.AttachModelStore(reg, djinn.AppConfig{Precision: prec})
			n, err := registerModels(reg, *modelsDir)
			if err != nil {
				log.Fatal(err)
			}
			if i == 0 {
				log.Printf("registered %d model file(s) from %s (budget %d bytes)", n, *modelsDir, *modelBudget)
			}
		} else {
			for _, app := range selected {
				if i == 0 {
					log.Printf("loading %s model...", app)
				}
				if err := djinn.RegisterAppPrecision(srv, app, prec); err != nil {
					log.Fatal(err)
				}
			}
		}
		servers[i] = srv
	}

	// The rest of the observability plane runs regardless of -admin: a
	// collector samples per-app stats into time series and a burn-rate
	// alert engine watches each app's SLO attainment; the journal and
	// engine answer the "events"/"alerts" control verbs on every
	// replica. -admin additionally exposes it all over HTTP.
	targets := make([]timeseries.Target, len(servers))
	for i := range servers {
		targets[i] = timeseries.Target{Replica: fmt.Sprintf("replica-%d", i), Server: servers[i]}
	}
	collector := timeseries.NewCollector(timeseries.Config{
		Interval: time.Second,
		Slots:    600, // ten minutes of per-second samples
		Targets:  targets,
	})
	collector.Run()
	var rules []alerts.Rule
	for _, name := range servers[0].Apps() {
		rules = append(rules, alerts.Rule{
			App: name, Objective: 0.95,
			FastWindow: 30 * time.Second, SlowWindow: 150 * time.Second,
			Pending: 10 * time.Second, MinDemand: 30,
			KeepFiring: 15 * time.Second,
		})
	}
	engine := alerts.New(collector, journal, rules...)
	engine.Run(5 * time.Second)
	for _, srv := range servers {
		srv.SetAlertsControl(engine.Control)
	}

	// -http fronts the replica fleet with the HTTP/JSON gateway: a
	// health-checked router spreads queries over the in-process
	// replicas, and the gateway layers JSON translation, the
	// content-addressed response cache, and per-tenant admission on
	// top of it.
	var gw *gateway.Gateway
	var gwStores []*djinn.TraceStore
	if *httpAddr != "" {
		grt := router.New(router.Config{Policy: router.LeastOutstanding})
		grt.SetJournal(journal)
		for i, srv := range servers {
			if err := grt.AddBackend(fmt.Sprintf("replica-%d", i), srv); err != nil {
				log.Fatal(err)
			}
		}
		sel := selected
		if *modelsDir != "" || *custom != "" {
			sel = nil // serve whatever the registry holds; keep all kinds
		}
		gw = serveGateway(gatewayOpts{addr: *httpAddr, rate: *httpRate, cacheMB: *httpCacheMB}, grt, sel, journal)
		gwStores = []*djinn.TraceStore{gw.Traces(), grt.TraceStore()}
	}

	if *adminAddr != "" {
		// Each replica gets a store labelled with its name so the slow
		// log and /trace can tell the fleet's tiers apart.
		reps := make([]djinn.AdminReplica, len(servers))
		stores := make([]*djinn.TraceStore, len(servers))
		for i, srv := range servers {
			name := fmt.Sprintf("replica-%d", i)
			st := djinn.NewTraceStore(name, 0)
			srv.SetTraceStore(st)
			reps[i] = djinn.AdminReplica{Name: name, Server: srv}
			stores[i] = st
		}
		handler := djinn.NewAdminHandler(djinn.AdminOptions{
			Replicas:  reps,
			Stores:    append(stores, gwStores...),
			Journal:   journal,
			Collector: collector,
			Alerts:    engine,
			Gateway:   gw,
		})
		go func() {
			log.Printf("admin plane on http://%s (/metrics /slowlog /trace?id= /events /dash /debug/pprof/)", *adminAddr)
			if err := http.ListenAndServe(*adminAddr, handler); err != nil {
				log.Fatalf("admin listener: %v", err)
			}
		}()
	}

	if *stats > 0 {
		go func() {
			for range time.Tick(*stats) {
				for i, srv := range servers {
					reportStats(srv, i, selected)
				}
			}
		}()
	}

	// SIGINT/SIGTERM drain every replica gracefully: in-flight batches
	// run to completion, queued stragglers fail with the shutdown
	// error, and each ListenAndServe returns nil once its drain ends.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("draining %d replica(s): rejecting new queries, flushing in-flight batches...", len(servers))
		start := time.Now()
		var wg sync.WaitGroup
		for _, srv := range servers {
			wg.Add(1)
			go func(s *djinn.Server) { defer wg.Done(); s.Close() }(srv)
		}
		wg.Wait()
		log.Printf("drained in %v", time.Since(start).Round(time.Millisecond))
	}()

	// A replica that fails to serve (port in use, accept error) is
	// fatal for the whole process the moment it happens: silently
	// running a smaller fleet than -replicas asked for would skew every
	// router experiment pointed at it. Graceful drain returns nil, so
	// shutdown never trips this.
	var wg sync.WaitGroup
	for i, srv := range servers {
		wg.Add(1)
		go func(i int, srv *djinn.Server) {
			defer wg.Done()
			log.Printf("DjiNN replica %d serving %v on %s", i, srv.Apps(), addrs[i])
			if err := srv.ListenAndServe(addrs[i]); err != nil {
				log.Fatalf("replica %d: %v", i, err)
			}
		}(i, srv)
	}
	wg.Wait()
}

// runControlPlane stands the fleet up behind one placement-aware front
// end: replicas bare servers (no apps at boot — activation is the
// controller's job), a health-checked router across them, a controller
// keeping each app on count replicas (autoscaling up to the fleet size
// from shed and p99 signals), and a framed-protocol proxy on addr whose
// control verbs (placement, members, autoscale, scale, rebalance) the
// controller answers.
// gatewayOpts carries the -http flags into a fleet mode.
type gatewayOpts struct {
	addr    string
	rate    float64
	cacheMB int64
}

// serveGateway boots the HTTP/JSON gateway over a backend (router or
// proxy tier) and returns it for admin wiring; nil when disabled.
func serveGateway(opts gatewayOpts, backend service.ContextBackend, selected []djinn.App, journal *events.Journal) *gateway.Gateway {
	if opts.addr == "" {
		return nil
	}
	cfgApps := gateway.DefaultApps()
	if len(selected) > 0 {
		sel := make(map[string]bool, len(selected))
		for _, a := range selected {
			sel[djinn.ServiceName(a)] = true
		}
		for name := range cfgApps {
			if !sel[name] {
				delete(cfgApps, name)
			}
		}
	}
	gw, err := gateway.New(gateway.Config{
		Backend: backend,
		Apps:    cfgApps,
		Cache:   gateway.CacheConfig{Budget: opts.cacheMB << 20},
		Limit:   gateway.LimitConfig{Rate: opts.rate},
		Journal: journal,
	})
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		log.Printf("gateway on http://%s (/v1/infer /v1/pipeline /v1/apps /v1/cache /healthz)", opts.addr)
		if err := http.ListenAndServe(opts.addr, gw); err != nil {
			log.Fatalf("gateway listener: %v", err)
		}
	}()
	return gw
}

func runControlPlane(selected []djinn.App, addr, adminAddr string, replicas, count int, interval, stats time.Duration, prec djinn.Precision, gwOpts gatewayOpts) {
	if count < 1 {
		count = 1
	}
	if count > replicas {
		count = replicas
	}
	apps := make([]string, len(selected))
	nets := map[string]*nn.Net{}
	for i, a := range selected {
		apps[i] = tonic.ServiceName(a)
		log.Printf("loading %s model...", a)
		nets[apps[i]] = models.BuildCached(a)
	}

	journal := events.New(0)
	rt := router.New(router.Config{
		Policy: router.LeastOutstanding,
		Health: router.HealthConfig{
			FailureThreshold: 3,
			ProbeInterval:    time.Second,
			MaxProbeInterval: 10 * time.Second,
		},
	})
	rt.SetJournal(journal)
	ctl := controlplane.NewController(controlplane.Config{
		Router: rt,
		Mapper: controlplane.NewMapper(controlplane.MapperConfig{
			Policy:       controlplane.LeastLoaded{},
			DefaultCount: count,
			CanaryWeight: 50,
		}),
		Autoscaler: controlplane.NewAutoscaler(controlplane.AutoscaleConfig{Min: count, Max: replicas}),
		Apps:       apps,
		DrainDelay: 2 * interval,
		Logf:       log.Printf,
		Journal:    journal,
	})

	servers := make([]*djinn.Server, replicas)
	reps := make([]djinn.AdminReplica, replicas)
	stores := []*djinn.TraceStore{rt.TraceStore()}
	for i := range servers {
		name := fmt.Sprintf("replica-%d", i)
		srv := djinn.NewServer()
		srv.SetJournal(journal, name)
		st := djinn.NewTraceStore(name, 0)
		srv.SetTraceStore(st)
		servers[i] = srv
		reps[i] = djinn.AdminReplica{Name: name, Server: srv}
		stores = append(stores, st)
		if err := rt.AddBackend(name, srv); err != nil {
			log.Fatal(err)
		}
		m := controlplane.NewServerMember(name, srv, nets, djinn.AppConfig{
			Workers: 4, Precision: prec,
		})
		// Each app keeps its Table 3 batch shape when the controller
		// activates it, matching what -replicas mode registers at boot.
		for _, a := range selected {
			spec := workload.Get(a)
			m.SetAppConfig(tonic.ServiceName(a), djinn.AppConfig{
				BatchInstances: spec.BatchSize * spec.Instances,
				Workers:        4,
				Precision:      prec,
			})
		}
		ctl.Join(m)
	}
	res := ctl.Reconcile()
	log.Printf("control plane: placed %d app(s) on %d-of-%d replicas (%d moves); tick %v", len(apps), count, replicas, res.Moves, interval)
	ctl.Run(interval)

	// Fleet observability: the collector samples every replica, the
	// burn-rate engine journals alert transitions, and the front end
	// answers the "events"/"alerts" verbs itself so tonic never needs a
	// direct replica connection.
	targets := make([]timeseries.Target, len(servers))
	for i := range servers {
		targets[i] = timeseries.Target{Replica: fmt.Sprintf("replica-%d", i), Server: servers[i]}
	}
	collector := timeseries.NewCollector(timeseries.Config{
		Interval: time.Second,
		Slots:    600,
		Targets:  targets,
	})
	collector.Run()
	rules := make([]alerts.Rule, len(apps))
	for i, name := range apps {
		rules[i] = alerts.Rule{
			App: name, Objective: 0.95,
			FastWindow: 30 * time.Second, SlowWindow: 150 * time.Second,
			Pending: 10 * time.Second, MinDemand: 30,
			KeepFiring: 15 * time.Second,
		}
	}
	engine := alerts.New(collector, journal, rules...)
	engine.Run(5 * time.Second)

	control := func(cmd string) (string, error) {
		fields := strings.Fields(cmd)
		if len(fields) > 0 {
			switch fields[0] {
			case "events":
				return journal.Control(fields[1:])
			case "alerts":
				return engine.Control(fields[1:])
			}
		}
		return ctl.Control(cmd)
	}
	proxy := service.NewProxy(rt, control)
	proxy.SetLogger(log.Printf)

	// The gateway shares the control plane's router, so placement and
	// canary splits apply to HTTP traffic exactly as to DJRT queries.
	gw := serveGateway(gwOpts, rt, selected, journal)
	if gw != nil {
		stores = append(stores, gw.Traces())
	}

	if adminAddr != "" {
		handler := djinn.NewAdminHandler(djinn.AdminOptions{
			Replicas:     reps,
			Router:       rt,
			ControlPlane: ctl,
			Stores:       stores,
			Journal:      journal,
			Collector:    collector,
			Alerts:       engine,
			Gateway:      gw,
		})
		go func() {
			log.Printf("admin plane on http://%s (/metrics /slowlog /trace?id= /events /dash /debug/pprof/)", adminAddr)
			if err := http.ListenAndServe(adminAddr, handler); err != nil {
				log.Fatalf("admin listener: %v", err)
			}
		}()
	}

	if stats > 0 {
		go func() {
			for range time.Tick(stats) {
				m := ctl.Snapshot()
				log.Printf("control plane: %d live / %d dead members, %d rebalances, %d moves",
					m.Members-m.Dead, m.Dead, m.Rebalances, m.Moves)
				for i, srv := range servers {
					reportStats(srv, i, selected)
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("draining the fleet: front end first, then controller, then %d replica(s)...", len(servers))
		start := time.Now()
		proxy.Close()
		ctl.Stop()
		rt.Close()
		var wg sync.WaitGroup
		for _, srv := range servers {
			wg.Add(1)
			go func(s *djinn.Server) { defer wg.Done(); s.Close() }(srv)
		}
		wg.Wait()
		log.Printf("drained in %v", time.Since(start).Round(time.Millisecond))
	}()

	log.Printf("DjiNN control-plane front end serving %v on %s (%d replicas in-process)", apps, addr, replicas)
	if err := proxy.ListenAndServe(addr); err != nil {
		log.Fatal(err)
	}
}

// replicaAddrs expands a base listen address into n consecutive-port
// addresses.
func replicaAddrs(addr string, n int) ([]string, error) {
	if n == 1 {
		return []string{addr}, nil
	}
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("-replicas needs host:port in -addr: %w", err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("-replicas needs a numeric port in -addr (got %q): replica i listens on port+i", portStr)
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = net.JoinHostPort(host, strconv.Itoa(port+i))
	}
	return addrs, nil
}

// reportStats logs one replica's per-app counters and latency stages.
func reportStats(srv *djinn.Server, replica int, selected []djinn.App) {
	for _, app := range selected {
		name := djinn.ServiceName(app)
		s, ok := srv.StatsFor(name)
		if !ok || s.Queries+s.Shed()+s.Expired == 0 {
			continue
		}
		log.Printf("replica %d %s: %d queries, %d batches, avg batch %.1f instances, shed %d (admission %d, expired-in-queue %d), expired %d",
			replica, app, s.Queries, s.Batches, s.AvgBatch(), s.Shed(), s.ShedAdmission, s.ShedExpired, s.Expired)
		if lat, ok := srv.LatencyFor(name); ok && lat.Forward.Count > 0 {
			log.Printf("replica %d %s: queue p50=%v p99=%v | assembly p50=%v | forward p50=%v p99=%v | respond p50=%v",
				replica, app, lat.QueueWait.P50, lat.QueueWait.P99, lat.BatchAssembly.P50,
				lat.Forward.P50, lat.Forward.P99, lat.Respond.P50)
		}
	}
}

// registerModels registers every .djw file in dir with the registry
// (metadata only; weights stay on disk until a query faults them in).
func registerModels(reg *djinn.ModelRegistry, dir string) (int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.djw"))
	if err != nil {
		return 0, err
	}
	if len(paths) == 0 {
		return 0, fmt.Errorf("no .djw files in %s (export with -export-models)", dir)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := reg.Register(p); err != nil {
			return 0, err
		}
	}
	return len(paths), nil
}

// verifyModels checksums every .djw file in dir end to end.
func verifyModels(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*.djw"))
	if err != nil {
		return err
	}
	if len(paths) == 0 {
		return fmt.Errorf("no .djw files in %s", dir)
	}
	sort.Strings(paths)
	for _, p := range paths {
		meta, err := djinn.VerifyModelFile(p)
		if err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
		log.Printf("ok %s: %s (%d bytes, %d params)", meta.ID(), p, meta.FileSize, len(meta.Params))
	}
	return nil
}

// registerCustom parses "name=def.netdef[:weights.djnm]" and loads the
// model.
func registerCustom(srv *djinn.Server, spec string, prec djinn.Precision) error {
	name, paths, ok := strings.Cut(spec, "=")
	if !ok || name == "" {
		return fmt.Errorf("-custom wants name=def.netdef[:weights.djnm], got %q", spec)
	}
	defPath, weightPath, _ := strings.Cut(paths, ":")
	defFile, err := os.Open(defPath)
	if err != nil {
		return err
	}
	defer defFile.Close()
	var weights io.Reader
	if weightPath != "" {
		wf, err := os.Open(weightPath)
		if err != nil {
			return err
		}
		defer wf.Close()
		weights = wf
	}
	log.Printf("loading custom model %q from %s...", name, defPath)
	return djinn.RegisterFromDef(srv, name, defFile, weights, djinn.AppConfig{Precision: prec})
}
