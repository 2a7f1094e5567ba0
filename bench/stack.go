package main

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"djinn/internal/gateway"
	"djinn/internal/models"
	"djinn/internal/router"
	"djinn/internal/service"
	"djinn/internal/tonic"
	"djinn/internal/trace"
)

// tracedStoreSize keeps every query of a traced window in the
// program's span stores (their default ring holds 1024).
const tracedStoreSize = 1 << 17

// stack is the program under test, assembled the way an operator
// would: DJRT workloads get one service.Server on a loopback port; HTTP
// workloads get replicas behind a least-outstanding router (AddAddr,
// pooled loopback connections) behind the gateway on a loopback HTTP
// port. All of it shares the benchmark's process, so getrusage and
// MemStats cover it.
type stack struct {
	servers []*service.Server
	addrs   []string
	rt      *router.Router
	gw      *gateway.Gateway
	hsrv    *http.Server
	url     string

	rec     *recorder      // traced pass only
	gwStore *trace.Store   // traced pass only
	tiers   []*trace.Store // router + replicas, traced pass only
}

// buildStack registers the apps at the default AppConfig, listens and
// wires the tiers. With a recorder it also installs large span stores
// and puts a span-recording wrapper between the gateway and the router.
func buildStack(apps []models.App, transport string, replicas int, cacheBudget int64, rec *recorder) (*stack, error) {
	st := &stack{rec: rec}
	for i := 0; i < replicas; i++ {
		srv := service.NewServer()
		srv.SetLogger(func(string, ...any) {})
		if rec != nil {
			store := trace.NewStore(fmt.Sprintf("replica-%d", i), tracedStoreSize)
			srv.SetTraceStore(store)
			st.tiers = append(st.tiers, store)
		}
		st.servers = append(st.servers, srv)
		for _, a := range apps {
			if err := tonic.Register(srv, a); err != nil {
				st.close()
				return nil, err
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, err
		}
		st.addrs = append(st.addrs, ln.Addr().String())
		go srv.Serve(ln) // returns when st.close closes the server
	}
	if transport != "http" {
		return st, nil
	}
	st.rt = router.New(router.Config{Policy: router.LeastOutstanding})
	for i, addr := range st.addrs {
		if err := st.rt.AddAddr(fmt.Sprintf("replica-%d", i), addr, nil); err != nil {
			st.close()
			return nil, err
		}
	}
	cfg := gateway.Config{Backend: st.rt, Cache: gateway.CacheConfig{Budget: cacheBudget}}
	if rec != nil {
		store := trace.NewStore("router", tracedStoreSize)
		st.rt.SetTraceStore(store)
		st.tiers = append(st.tiers, store)
		st.gwStore = trace.NewStore("gateway", tracedStoreSize)
		cfg.Traces = st.gwStore
		cfg.Backend = &spanBackendWrapper{next: st.rt, rec: rec, name: spanRouter}
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		st.close()
		return nil, err
	}
	st.gw = gw
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.close()
		return nil, err
	}
	st.hsrv = &http.Server{Handler: gw}
	st.url = "http://" + ln.Addr().String()
	go st.hsrv.Serve(ln) // returns when st.close closes the listener
	return st, nil
}

// dial opens the workload's client connections: one DJRT connection or
// one HTTP keep-alive connection per client.
func (st *stack) dial(n int) ([]client, error) {
	var clients []client
	for i := 0; i < n; i++ {
		if st.gw != nil {
			clients = append(clients, newHTTPClient(st.url, st.rec))
			continue
		}
		c, err := newDJRTClient(st.addrs[0], st.rec)
		if err != nil {
			closeClients(clients)
			return nil, err
		}
		clients = append(clients, c)
	}
	return clients, nil
}

func closeClients(clients []client) {
	for _, c := range clients {
		c.close()
	}
}

func (st *stack) close() {
	if st.hsrv != nil {
		st.hsrv.Close()
	}
	if st.rt != nil {
		st.rt.Close()
	}
	for _, srv := range st.servers {
		srv.Close()
	}
}

// serviceStats sums the replicas' per-app counters.
func (st *stack) serviceStats(apps []models.App) service.Stats {
	var sum service.Stats
	for _, srv := range st.servers {
		for _, a := range apps {
			s, ok := srv.StatsFor(tonic.ServiceName(a))
			if !ok {
				continue
			}
			sum.Queries += s.Queries
			sum.Instances += s.Instances
			sum.Batches += s.Batches
			sum.Errors += s.Errors
			sum.ShedAdmission += s.ShedAdmission
			sum.ShedExpired += s.ShedExpired
			sum.Expired += s.Expired
		}
	}
	return sum
}

// routerAttempts sums sent and answered exchanges over the replicas.
func (st *stack) routerAttempts() (sent, ok int64) {
	if st.rt == nil {
		return 0, 0
	}
	for _, b := range st.rt.Stats() {
		sent += b.Stats.Sent
		ok += b.Stats.OK
	}
	return sent, ok
}

// live is one set-up: a stack with its clients dialled and warmed.
type live struct {
	st      *stack
	clients []client
}

func (l *live) close() {
	closeClients(l.clients)
	l.st.close()
}

// setUp is what an operator pays before the first query: build the
// tiers, listen, dial, and run the fixed warm-up. It returns how long
// that took.
func setUp(w *workloadDef, pop *population, rec *recorder) (*live, time.Duration, error) {
	t0 := time.Now()
	st, err := buildStack(w.apps, w.transport, w.replicas, w.cacheBudget, rec)
	if err != nil {
		return nil, 0, err
	}
	clients, err := st.dial(clientCount)
	if err != nil {
		st.close()
		return nil, 0, err
	}
	l := &live{st: st, clients: clients}
	if err := warmUp(clients, pop.warm); err != nil {
		l.close()
		return nil, 0, err
	}
	return l, time.Since(t0), nil
}
