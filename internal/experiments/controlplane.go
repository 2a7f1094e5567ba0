package experiments

import (
	"fmt"
	"time"

	"djinn/internal/controlplane"
	"djinn/internal/nn"
	"djinn/internal/router"
	"djinn/internal/service"
	"djinn/internal/tensor"
	"djinn/internal/workload"
)

// The controlplane experiment measures the cluster-level claim: when a
// replica serving a placed application dies mid-load, the control plane
// detects it, re-places the application onto a spare, and SLO
// attainment recovers — with the detection-to-replacement time (the
// availability gap) reported, not hand-waved. This is the DjiNN
// service run as a fleet rather than a single node: the paper's
// throughput/latency story only holds at warehouse scale if placement
// survives machine churn.

// ControlPlaneResult summarises one kill-mid-load run.
type ControlPlaneResult struct {
	Replicas int
	Apps     int

	Before, During, After workload.MixedResult

	// RebalanceTime is kill → first reconcile move: how long the fleet
	// ran with the app below its replica count.
	RebalanceTime time.Duration
	Metrics       controlplane.Metrics
}

// cpNet is the serving payload model: a forward pass of microseconds,
// so the offered rate, never a replica's capacity, sets the load.
func cpNet(seed uint64) *nn.Net {
	rng := tensor.NewRNG(seed)
	n := nn.NewNet("cp", nn.KindDNN, 8)
	n.Add(nn.NewFC("fc1", rng, 8, 16)).
		Add(nn.NewReLU("relu")).
		Add(nn.NewFC("fc2", rng, 16, 4)).
		Add(nn.NewSoftmax("prob"))
	return n
}

// ControlPlaneRun builds an in-process fleet of replicas behind a
// placement-aware router and a running controller, drives a weighted
// two-app mix open-loop in three windows — healthy, kill-mid-load, and
// recovered — and reports per-window attainment plus the kill-to-move
// rebalance time.
func ControlPlaneRun(replicas int, window time.Duration, rate float64) (ControlPlaneResult, error) {
	res := ControlPlaneResult{Replicas: replicas, Apps: 2}
	silent := func(string, ...any) {}
	apps := []string{"imc", "asr"}

	rt := router.New(router.Config{
		Policy: router.LeastOutstanding,
		Health: router.HealthConfig{
			FailureThreshold: 2,
			ProbeInterval:    20 * time.Millisecond,
			MaxProbeInterval: 100 * time.Millisecond,
		},
	})
	defer rt.Close()

	deadline := 150 * time.Millisecond
	ctl := controlplane.NewController(controlplane.Config{
		Router: rt,
		Mapper: controlplane.NewMapper(controlplane.MapperConfig{
			Policy:       controlplane.LeastLoaded{},
			DefaultCount: 2,
			CanaryWeight: 50,
		}),
		Autoscaler: controlplane.NewAutoscaler(controlplane.AutoscaleConfig{
			Min: 2, Max: replicas,
			UpAfter: 2, DownAfter: 20,
			UpCooldown: 50 * time.Millisecond, DownCooldown: time.Second,
		}),
		Apps:       apps,
		DeadAfter:  2,
		DrainDelay: deadline + 20*time.Millisecond,
		Logf:       silent,
	})

	servers := make(map[string]*service.Server, replicas)
	for i := 0; i < replicas; i++ {
		id := fmt.Sprintf("r%d", i)
		srv := service.NewServer()
		srv.SetLogger(silent)
		defer srv.Close()
		servers[id] = srv
		if err := rt.AddBackend(id, srv); err != nil {
			return res, err
		}
		nets := map[string]*nn.Net{}
		for j, app := range apps {
			nets[app] = cpNet(uint64(j + 1))
		}
		ctl.Join(controlplane.NewServerMember(id, srv, nets, service.AppConfig{
			BatchInstances: 8,
			BatchWindow:    2 * time.Millisecond,
			Workers:        2,
			MaxPending:     256,
			SLO:            40 * time.Millisecond,
		}))
	}
	if r := ctl.Reconcile(); r.Moves == 0 {
		return res, fmt.Errorf("initial reconcile placed nothing")
	}
	ctl.Run(5 * time.Millisecond)
	defer ctl.Stop()

	payload := func(*tensor.RNG) []float32 { return make([]float32, 8) }
	mix := workload.Mix{
		{Name: "imc", Weight: 3, Payload: payload},
		{Name: "asr", Weight: 1, Payload: payload},
	}
	drive := func() workload.MixedResult {
		return workload.DriveMixed(rt, mix, rate, workload.FlatCurve(), 16, workload.DriveOptions{
			Duration: window,
			Deadline: deadline,
			SLO:      40 * time.Millisecond,
		})
	}

	// Window 1: healthy fleet.
	res.Before = drive()

	// Kill a replica that holds a placement, then drive through the
	// failover while a prober times the kill → first-move gap.
	victim := ""
	if pls := rt.Placements()["imc"]; len(pls) > 0 {
		victim = pls[0].Replica
	}
	if victim == "" {
		return res, fmt.Errorf("no placement installed for imc")
	}
	movesBefore := ctl.Snapshot().Moves
	killAt := time.Now()
	servers[victim].Close()
	moved := make(chan time.Duration, 1)
	go func() {
		for {
			if ctl.Snapshot().Moves > movesBefore {
				moved <- time.Since(killAt)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	res.During = drive()

	select {
	case res.RebalanceTime = <-moved:
	case <-time.After(2 * window):
		return res, fmt.Errorf("controller never rebalanced after the kill")
	}

	// Window 3: fleet re-placed around the dead replica.
	res.After = drive()
	res.Metrics = ctl.Snapshot()
	return res, nil
}

// RenderControlPlane prints the kill-mid-load run: attainment per
// window, the rebalance gap, and the control plane's final counters.
func RenderControlPlane() string {
	out := "Extension: cluster control plane — replica kill under load, re-placement, recovery\n"
	res, err := ControlPlaneRun(3, 400*time.Millisecond, 300)
	if err != nil {
		return out + err.Error() + "\n"
	}
	t := &table{header: []string{"window", "issued", "ok", "shed", "expired", "errors", "attainment", "p99"}}
	row := func(name string, r workload.MixedResult) {
		t.add(name,
			fmt.Sprint(r.Total.Issued()), fmt.Sprint(r.Total.Queries),
			fmt.Sprint(r.Total.Shed), fmt.Sprint(r.Total.Expired), fmt.Sprint(r.Total.Errors),
			fmt.Sprintf("%.3f", r.Total.SLOAttainment()),
			r.Total.Latency.P99.Round(time.Microsecond).String())
	}
	row("healthy", res.Before)
	row("kill", res.During)
	row("recovered", res.After)
	out += t.String()
	out += fmt.Sprintf("(%d replicas, %d apps; kill -> first re-placement move in %v;\n"+
		" %d rebalances, %d moves total, %d members live / %d dead at the end;\n"+
		" recovered-window attainment %.3f vs healthy %.3f)\n",
		res.Replicas, res.Apps, res.RebalanceTime.Round(time.Millisecond),
		res.Metrics.Rebalances, res.Metrics.Moves,
		res.Metrics.Members-res.Metrics.Dead, res.Metrics.Dead,
		res.After.Total.SLOAttainment(), res.Before.Total.SLOAttainment())
	return out
}
