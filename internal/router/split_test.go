package router

import (
	"context"
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"djinn/internal/modelstore"
	"djinn/internal/service"
	"djinn/internal/tensor"
	"djinn/internal/testutil"
)

// appRecorder is a backend that counts queries per application name —
// exactly what a split test needs to observe the rewrite.
type appRecorder struct {
	mu   sync.Mutex
	apps map[string]int
}

func (r *appRecorder) Infer(app string, in []float32) ([]float32, error) {
	return r.InferCtx(context.Background(), app, in)
}

func (r *appRecorder) InferCtx(_ context.Context, app string, _ []float32) ([]float32, error) {
	r.mu.Lock()
	if r.apps == nil {
		r.apps = make(map[string]int)
	}
	r.apps[app]++
	r.mu.Unlock()
	return []float32{1}, nil
}

func (r *appRecorder) count(app string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.apps[app]
}

func TestSplitDeterministicFraction(t *testing.T) {
	testutil.NoLeaks(t)
	rec := &appRecorder{}
	rt := New(Config{Policy: RoundRobin})
	defer rt.Close()
	if err := rt.AddBackend("r0", rec); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetSplit("imc", SplitTarget{"imc@v1", 9}, SplitTarget{"imc@v2", 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := rt.Infer("imc", nil); err != nil {
			t.Fatal(err)
		}
	}
	// The weighted counter is deterministic: exactly 10 of 100 queries
	// land on the canary, no sampling noise.
	if got := rec.count("imc@v2"); got != 10 {
		t.Fatalf("canary saw %d/100 queries, want exactly 10", got)
	}
	if got := rec.count("imc@v1"); got != 90 {
		t.Fatalf("stable saw %d/100 queries, want exactly 90", got)
	}
	if got := rec.count("imc"); got != 0 {
		t.Fatalf("%d queries escaped the split to the base name", got)
	}
	// Other apps are untouched by imc's split.
	if _, err := rt.Infer("asr", nil); err != nil {
		t.Fatal(err)
	}
	if got := rec.count("asr"); got != 1 {
		t.Fatalf("unsplit app rewritten: %v", rec.apps)
	}
	sts := rt.Splits()["imc"]
	if len(sts) != 2 || sts[0].Routed != 90 || sts[1].Routed != 10 {
		t.Fatalf("Splits() = %+v", sts)
	}
	if apps := rt.SplitApps(); len(apps) != 1 || apps[0] != "imc" {
		t.Fatalf("SplitApps() = %v", apps)
	}
}

func TestSplitPromoteRollback(t *testing.T) {
	testutil.NoLeaks(t)
	rec := &appRecorder{}
	rt := New(Config{Policy: RoundRobin})
	defer rt.Close()
	if err := rt.AddBackend("r0", rec); err != nil {
		t.Fatal(err)
	}
	send := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := rt.Infer("imc", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Stable pin, then canary, then promote.
	if err := rt.SetSplit("imc", SplitTarget{"imc@v1", 1}); err != nil {
		t.Fatal(err)
	}
	if err := rt.SetSplit("imc", SplitTarget{"imc@v1", 4}, SplitTarget{"imc@v2", 1}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Promote("imc", "imc@v2"); err != nil {
		t.Fatal(err)
	}
	send(10)
	if got := rec.count("imc@v2"); got != 10 {
		t.Fatalf("after Promote, canary saw %d/10", got)
	}
	// Rollback restores the canary split the promotion displaced.
	if err := rt.Rollback("imc"); err != nil {
		t.Fatal(err)
	}
	sts := rt.Splits()["imc"]
	if len(sts) != 2 || sts[0].Target != "imc@v1" || sts[0].Weight != 4 {
		t.Fatalf("after Rollback, Splits() = %+v", sts)
	}
	// History is one-deep: a second rollback has nothing to restore.
	if err := rt.Rollback("imc"); err == nil {
		t.Fatal("second Rollback should fail (one-deep history)")
	}
	rt.ClearSplit("imc")
	send(3)
	if got := rec.count("imc"); got != 3 {
		t.Fatalf("after ClearSplit, base name saw %d/3", got)
	}
	if err := rt.Rollback("imc"); err == nil {
		t.Fatal("Rollback without a split should fail")
	}
	// Rolling back a first-ever split restores "no split".
	if err := rt.SetSplit("imc", SplitTarget{"imc@v9", 1}); err != nil {
		t.Fatal(err)
	}
	if err := rt.Rollback("imc"); err != nil {
		t.Fatal(err)
	}
	if len(rt.Splits()) != 0 {
		t.Fatalf("Splits() after rollback-to-nothing = %v", rt.Splits())
	}
}

func TestSplitValidation(t *testing.T) {
	testutil.NoLeaks(t)
	rt := New(Config{})
	defer rt.Close()
	if err := rt.SetSplit("a"); err == nil {
		t.Fatal("empty split accepted")
	}
	if err := rt.SetSplit("a", SplitTarget{"", 1}); err == nil {
		t.Fatal("empty target accepted")
	}
	if err := rt.SetSplit("a", SplitTarget{"x", 0}); err == nil {
		t.Fatal("zero weight accepted")
	}
	if err := rt.SetSplit("a", SplitTarget{"x", 1}, SplitTarget{"x", 2}); err == nil {
		t.Fatal("duplicate target accepted")
	}
}

// TestCanaryRollbackZeroLostQueries is the end-to-end acceptance test
// for versioned rollout: two versions of one model served from the
// store side by side, a canary split steering a deterministic fraction
// to v2, and a mid-traffic rollback that restores v1 without failing a
// single query.
func TestCanaryRollbackZeroLostQueries(t *testing.T) {
	testutil.NoLeaks(t)
	dir := t.TempDir()
	v1, v2 := filepath.Join(dir, "m@v1.djw"), filepath.Join(dir, "m@v2.djw")
	if err := modelstore.WriteFile(v1, "m", 1, tinyNet(1)); err != nil {
		t.Fatal(err)
	}
	if err := modelstore.WriteFile(v2, "m", 2, tinyNet(2)); err != nil {
		t.Fatal(err)
	}
	reg := modelstore.NewRegistry(modelstore.Config{})
	s := service.NewServer()
	s.SetLogger(silence)
	s.AttachModelStore(reg, service.AppConfig{BatchInstances: 4, Workers: 1})
	for _, p := range []string{v1, v2} {
		if _, err := reg.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		s.Close()
		if err := reg.Close(); err != nil {
			t.Error(err)
		}
	}()
	rt := New(Config{Policy: RoundRobin})
	defer rt.Close()
	if err := rt.AddBackend("s0", s); err != nil {
		t.Fatal(err)
	}

	in := []float32{1, 0, -1, 2, 0.5, 0, 0, 1}
	ref := func(seed uint64) []float32 {
		r := tinyNet(seed).NewRunner(1)
		return append([]float32(nil), r.Forward(tensor.FromSlice(in, 1, 8)).Data()...)
	}
	ref1, ref2 := ref(1), ref(2)
	classify := func(out []float32) string {
		t.Helper()
		match := func(want []float32) bool {
			for j := range want {
				if math.Abs(float64(out[j]-want[j])) > 1e-5 {
					return false
				}
			}
			return true
		}
		switch {
		case match(ref1):
			return "v1"
		case match(ref2):
			return "v2"
		}
		t.Fatalf("answer matches neither version: %v", out)
		return ""
	}

	// Stable: pin all traffic to v1 (a bare "m" would resolve to the
	// newest version, v2 — the split is what keeps v1 serving).
	if err := rt.SetSplit("m", SplitTarget{"m@v1", 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		out, err := rt.Infer("m", in)
		if err != nil {
			t.Fatal(err)
		}
		if v := classify(out); v != "v1" {
			t.Fatalf("stable query %d answered by %s", i, v)
		}
	}
	// Canary: exactly 10% of traffic to v2.
	if err := rt.SetSplit("m", SplitTarget{"m@v1", 9}, SplitTarget{"m@v2", 1}); err != nil {
		t.Fatal(err)
	}
	versions := map[string]int{}
	for i := 0; i < 100; i++ {
		out, err := rt.Infer("m", in)
		if err != nil {
			t.Fatal(err)
		}
		versions[classify(out)]++
	}
	if versions["v2"] != 10 || versions["v1"] != 90 {
		t.Fatalf("canary fraction = %v, want 90/10", versions)
	}

	// Rollback under fire: concurrent clients keep querying while the
	// canary is yanked. Every query must be answered by v1 or v2 —
	// zero lost.
	const clients, perClient = 4, 60
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	rolled := make(chan struct{})
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				out, err := rt.Infer("m", in)
				if err != nil {
					errs <- err
					return
				}
				classify(out)
				if i == perClient/2 {
					select {
					case <-rolled:
					default:
					}
				}
			}
		}()
	}
	time.Sleep(2 * time.Millisecond)
	if err := rt.Rollback("m"); err != nil {
		t.Fatal(err)
	}
	close(rolled)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("query lost during rollback: %v", err)
	}
	// Rollback restored the 100%-v1 split.
	sts := rt.Splits()["m"]
	if len(sts) != 1 || sts[0].Target != "m@v1" {
		t.Fatalf("post-rollback split = %+v", sts)
	}
	for i := 0; i < 20; i++ {
		out, err := rt.Infer("m", in)
		if err != nil {
			t.Fatal(err)
		}
		if v := classify(out); v != "v1" {
			t.Fatalf("post-rollback query %d answered by %s", i, v)
		}
	}
}
