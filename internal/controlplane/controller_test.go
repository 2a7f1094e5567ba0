package controlplane

import (
	"strings"
	"testing"
	"time"

	"djinn/internal/events"
	"djinn/internal/nn"
	"djinn/internal/router"
	"djinn/internal/service"
	"djinn/internal/tensor"
	"djinn/internal/testutil"
)

func silence(string, ...any) {}

func tinyNet(seed uint64) *nn.Net {
	rng := tensor.NewRNG(seed)
	n := nn.NewNet("tiny", nn.KindDNN, 8)
	n.Add(nn.NewFC("fc1", rng, 8, 16)).
		Add(nn.NewReLU("relu")).
		Add(nn.NewFC("fc2", rng, 16, 4)).
		Add(nn.NewSoftmax("prob"))
	return n
}

func testAppCfg() service.AppConfig {
	return service.AppConfig{BatchInstances: 4, Workers: 1, MaxPending: 64}
}

// testFleet builds n in-process replicas registered with both the
// router (data path) and the controller (control path). No app is
// registered up front: activation is the controller's job.
func testFleet(t *testing.T, c *Controller, rt *router.Router, n int, apps []string) []*ServerMember {
	t.Helper()
	members := make([]*ServerMember, n)
	for i := 0; i < n; i++ {
		srv := service.NewServer()
		srv.SetLogger(silence)
		t.Cleanup(srv.Close)
		nets := map[string]*nn.Net{}
		for _, app := range apps {
			nets[app] = tinyNet(1)
		}
		id := string(rune('a' + i))
		if err := rt.AddBackend(id, srv); err != nil {
			t.Fatal(err)
		}
		m := NewServerMember(id, srv, nets, testAppCfg())
		members[i] = m
		c.Join(m)
	}
	return members
}

// TestReconcileActivatesAndDrains: the reconciler activates an app on
// exactly its placed replicas, queries flow, and shrinking the
// membership moves the assignment and drains the old replica.
func TestReconcileActivatesAndDrains(t *testing.T) {
	testutil.NoLeaks(t)
	rt := router.New(router.Config{})
	defer rt.Close()
	c := NewController(Config{
		Router: rt,
		Mapper: NewMapper(MapperConfig{Policy: LeastLoaded{}, DefaultCount: 2}),
		Apps:   []string{"tiny"},
	})
	members := testFleet(t, c, rt, 3, []string{"tiny"})

	res := c.Reconcile()
	if res.Moves != 1 {
		t.Fatalf("first reconcile: %d moves, want 1", res.Moves)
	}
	pls := rt.Placements()["tiny"]
	if len(pls) != 2 {
		t.Fatalf("placement %v, want 2 replicas", pls)
	}
	active := 0
	for _, m := range members {
		for _, app := range m.Server().Apps() {
			if app == "tiny" {
				active++
			}
		}
	}
	if active != 2 {
		t.Fatalf("app active on %d replicas, want 2", active)
	}
	if _, err := rt.Infer("tiny", make([]float32, 8)); err != nil {
		t.Fatal(err)
	}

	// A second reconcile with nothing changed is a no-op.
	if res := c.Reconcile(); res.Moves != 0 {
		t.Fatalf("steady-state reconcile made %d moves", res.Moves)
	}

	// Decommission one of the assignees: the app moves to the spare,
	// and the drained replica ends up without the app.
	victim := pls[0].Replica
	c.Leave(victim)
	if res := c.Reconcile(); res.Moves != 1 {
		t.Fatalf("post-leave reconcile: %d moves, want 1", res.Moves)
	}
	c.WaitDrains()
	for _, m := range members {
		has := false
		for _, app := range m.Server().Apps() {
			if app == "tiny" {
				has = true
			}
		}
		if m.ID() == victim && has {
			t.Fatalf("drained replica %s still serves the app", victim)
		}
	}
	for _, p := range rt.Placements()["tiny"] {
		if p.Replica == victim {
			t.Fatalf("placement still names departed replica: %v", rt.Placements()["tiny"])
		}
	}
	if _, err := rt.Infer("tiny", make([]float32, 8)); err != nil {
		t.Fatalf("query after rebalance: %v", err)
	}
}

// TestControlVerbs: the verb family the front-end proxy exposes.
func TestControlVerbs(t *testing.T) {
	testutil.NoLeaks(t)
	rt := router.New(router.Config{})
	defer rt.Close()
	c := NewController(Config{
		Router:     rt,
		Mapper:     NewMapper(MapperConfig{Policy: ConsistentHash{}}),
		Autoscaler: NewAutoscaler(AutoscaleConfig{Min: 1, Max: 3}),
		Apps:       []string{"tiny"},
	})
	testFleet(t, c, rt, 3, []string{"tiny"})
	c.Reconcile()

	out, err := c.Control("placement")
	if err != nil || !strings.HasPrefix(out, "tiny ") {
		t.Fatalf("placement: %q, %v", out, err)
	}
	out, err = c.Control("members")
	if err != nil || !strings.Contains(out, "a live") {
		t.Fatalf("members: %q, %v", out, err)
	}
	out, err = c.Control("scale tiny 2")
	if err != nil || !strings.Contains(out, "scaled tiny to 2") {
		t.Fatalf("scale: %q, %v", out, err)
	}
	c.WaitDrains()
	if got := len(rt.Placements()["tiny"]); got != 2 {
		t.Fatalf("placement has %d replicas after scale verb, want 2", got)
	}
	out, err = c.Control("autoscale tiny")
	if err != nil || !strings.Contains(out, "count=2") {
		t.Fatalf("autoscale: %q, %v", out, err)
	}
	if _, err := c.Control("scale ghost 2"); err == nil {
		t.Fatal("scale accepted an unmanaged app")
	}
	if _, err := c.Control("bogus"); err == nil {
		t.Fatal("unknown verb accepted")
	}
	if _, err := c.Control("rebalance"); err != nil {
		t.Fatal(err)
	}
}

// TestHealthDrivenDeathAndRevive: a replica the router keeps reporting
// unhealthy is declared dead after DeadAfter ticks and its assignments
// move; Revive folds it back in on the next reconcile.
func TestHealthDrivenDeathAndRevive(t *testing.T) {
	testutil.NoLeaks(t)
	rt := router.New(router.Config{Health: router.HealthConfig{
		FailureThreshold: 1,
		ProbeInterval:    time.Hour, // stay down for the whole test
		MaxProbeInterval: time.Hour,
	}})
	defer rt.Close()
	c := NewController(Config{
		Router:    rt,
		Mapper:    NewMapper(MapperConfig{Policy: LeastLoaded{}, DefaultCount: 2}),
		Apps:      []string{"tiny"},
		DeadAfter: 2,
		Logf:      silence,
	})
	members := testFleet(t, c, rt, 3, []string{"tiny"})
	c.Reconcile()
	victim := rt.Placements()["tiny"][0].Replica

	// Kill the victim's server: its in-flight handling fails with a
	// retryable shutdown error, the router marks it down, and the
	// controller's health scan declares it dead two ticks later.
	for _, m := range members {
		if m.ID() == victim {
			m.Server().Close()
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rt.Infer("tiny", make([]float32, 8)) // drive traffic so health updates
		res := c.Tick(time.Now())
		if res.Moves > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("controller never declared the dead replica")
		}
	}
	for _, p := range rt.Placements()["tiny"] {
		if p.Replica == victim {
			t.Fatalf("dead replica still placed: %v", rt.Placements()["tiny"])
		}
	}
	if live := c.MemberIDs()[victim]; live {
		t.Fatal("victim still marked live")
	}
	if _, err := rt.Infer("tiny", make([]float32, 8)); err != nil {
		t.Fatalf("query after failover: %v", err)
	}

	// The operator can't revive what never rejoined the data path, but
	// Revive flips the control-plane state and the next reconcile may
	// place apps there again.
	if !c.Revive(victim) {
		t.Fatal("Revive failed")
	}
	if live := c.MemberIDs()[victim]; !live {
		t.Fatal("victim still dead after Revive")
	}
	c.WaitDrains()
}

// TestControllerJournalsFleetEvents: membership, placement (with its
// reconcile generation), and death transitions all land in the journal.
func TestControllerJournalsFleetEvents(t *testing.T) {
	testutil.NoLeaks(t)
	rt := router.New(router.Config{Health: router.HealthConfig{
		FailureThreshold: 1,
		ProbeInterval:    time.Hour,
		MaxProbeInterval: time.Hour,
	}})
	defer rt.Close()
	j := events.New(128)
	c := NewController(Config{
		Router:    rt,
		Mapper:    NewMapper(MapperConfig{Policy: LeastLoaded{}, DefaultCount: 1}),
		Apps:      []string{"tiny"},
		DeadAfter: 1,
		Logf:      silence,
		Journal:   j,
	})
	members := testFleet(t, c, rt, 2, []string{"tiny"})
	if got := len(j.Filter(events.KindMember, 0)); got != 2 {
		t.Fatalf("join events = %d, want 2", got)
	}
	c.Reconcile()
	pls := j.Filter(events.KindPlacement, 0)
	if len(pls) != 1 || !strings.Contains(pls[0].Msg, "gen 1: tiny →") {
		t.Fatalf("placement events = %+v, want one gen-1 flip", pls)
	}

	// Kill the placed replica; the death and re-placement both journal.
	victim := rt.Placements()["tiny"][0].Replica
	for _, m := range members {
		if m.ID() == victim {
			m.Server().Close()
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Tick(time.Now()).Moves == 0 {
		rt.Infer("tiny", make([]float32, 8))
		if time.Now().After(deadline) {
			t.Fatal("failover never happened")
		}
	}
	found := false
	for _, ev := range j.Filter(events.KindMember, 0) {
		if strings.Contains(ev.Msg, victim+" declared dead") {
			found = true
		}
	}
	if !found {
		t.Errorf("no death event for %s in journal", victim)
	}
	pls = j.Filter(events.KindPlacement, 0)
	last := pls[len(pls)-1].Msg
	if len(pls) < 2 || strings.Contains(last, "gen 1:") || strings.Contains(last, victim) {
		t.Errorf("re-placement not journaled at a later generation off %s: %+v", victim, pls)
	}
	c.WaitDrains()
}
