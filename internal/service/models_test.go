package service

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"djinn/internal/modelstore"
	"djinn/internal/tensor"
	"djinn/internal/testutil"
)

// storeCfg is a small batching config for store-backed test apps.
var storeCfg = AppConfig{BatchInstances: 4, Workers: 1}

// exportModels writes n versions of testNet-shaped models named
// "m000".."m(n-1)" (each a distinct seed) into a temp dir and returns
// their paths.
func exportModels(t *testing.T, n int) []string {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("m%03d", i)
		paths[i] = filepath.Join(dir, name+".djw")
		if err := modelstore.WriteFile(paths[i], name, 1, testNet(uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

func TestUnregisterDrainsOneApp(t *testing.T) {
	testutil.NoLeaks(t)
	s := NewServer()
	s.SetLogger(silence)
	defer s.Close()
	cfg := AppConfig{BatchInstances: 2, Workers: 1}
	if err := s.Register("a", testNet(1), cfg); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("b", testNet(2), cfg); err != nil {
		t.Fatal(err)
	}
	in := make([]float32, 8)
	if _, err := s.Infer("a", in); err != nil {
		t.Fatal(err)
	}
	if err := s.Unregister("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Unregister("a"); err == nil {
		t.Fatal("double Unregister should fail")
	}
	if _, err := s.Infer("a", in); err == nil {
		t.Fatal("query for unregistered app should fail")
	}
	// Sibling app is unaffected, and the name can be reused.
	if _, err := s.Infer("b", in); err != nil {
		t.Fatalf("sibling app broken by Unregister: %v", err)
	}
	if err := s.Register("a", testNet(3), cfg); err != nil {
		t.Fatalf("re-register after Unregister: %v", err)
	}
	if _, err := s.Infer("a", in); err != nil {
		t.Fatal(err)
	}
}

// TestModelStoreLifecycle is the service-tier acceptance test for the
// store: models fault in on first query (by bare name or versioned
// ID), serve bit-identical results from mapped pages, and evict under
// budget pressure without ever failing a query. It runs the same three
// rounds from one goroutine and from four at once, each starting at a
// different model, so faults, evictions and queries for the app being
// evicted interleave under one budget.
//
// Each goroutine pins the model its query runs on, and a load that
// finds every resident model pinned overshoots the budget by design
// (modelstore.Config.BudgetBytes). So the budget holds one model file
// (~1.2 KB) per goroutine, and at least three: then the budget is a
// bound, not luck, and six models still churn through it every round.
func TestModelStoreLifecycle(t *testing.T) {
	for _, tc := range []struct {
		goroutines int
		budget     int64
	}{
		{1, 4 << 10}, // ≈ 3 model files
		{4, 5 << 10}, // ≈ 4 model files
	} {
		t.Run(fmt.Sprintf("goroutines=%d", tc.goroutines), func(t *testing.T) {
			testModelStoreLifecycle(t, tc.goroutines, tc.budget)
		})
	}
}

func testModelStoreLifecycle(t *testing.T, goroutines int, budget int64) {
	testutil.NoLeaks(t)
	const nModels = 6
	paths := exportModels(t, nModels)
	reg := modelstore.NewRegistry(modelstore.Config{BudgetBytes: budget})
	s := NewServer()
	s.SetLogger(silence)
	s.AttachModelStore(reg, storeCfg)
	for _, p := range paths {
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

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in := make([]float32, 8)
			tensor.NewRNG(uint64(5+g)).FillUniform(in, -1, 1)
			for round := 0; round < 3; round++ {
				for k := 0; k < nModels; k++ {
					i := (k + g) % nModels
					name := fmt.Sprintf("m%03d", i)
					if round == 1 {
						name += "@v1" // versioned and bare names hit the same app
					}
					out, err := s.Infer(name, in)
					if err != nil {
						t.Errorf("goroutine %d round %d %s: %v", g, round, name, err)
						return
					}
					plan := testNet(uint64(i + 1)).Compile(1)
					copy(plan.In(1).Data(), in)
					want := plan.Run(1).Data()
					for j := range want {
						if out[j] != want[j] {
							t.Errorf("goroutine %d %s output %d: %g != %g", g, name, j, out[j], want[j])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st := reg.Stats()
	if st.Evictions == 0 {
		t.Fatalf("no evictions under a %d-byte budget: %+v", st.BudgetBytes, st)
	}
	if st.PeakBytes > st.BudgetBytes {
		t.Fatalf("peak resident %d exceeded budget %d", st.PeakBytes, st.BudgetBytes)
	}
	if st.Faults < nModels {
		t.Fatalf("faults %d < %d first-touch loads", st.Faults, nModels)
	}
	if st.LoadErrors != 0 {
		t.Fatalf("%d load errors: %+v", st.LoadErrors, st)
	}
	// The server's app table only holds resident models.
	if apps := s.Apps(); len(apps) > st.Resident {
		t.Fatalf("%d apps registered for %d resident models: %v", len(apps), st.Resident, apps)
	}
	if _, err := s.Infer("ghost", make([]float32, 8)); err == nil || !strings.Contains(err.Error(), "unknown application") {
		t.Fatalf("unknown model error = %v", err)
	}
}

// TestModelStoreConcurrentFaultIn hammers one cold model from many
// goroutines: single-flight loading, one app registration, every query
// answered.
func TestModelStoreConcurrentFaultIn(t *testing.T) {
	testutil.NoLeaks(t)
	paths := exportModels(t, 1)
	reg := modelstore.NewRegistry(modelstore.Config{})
	s := NewServer()
	s.SetLogger(silence)
	s.AttachModelStore(reg, storeCfg)
	if _, err := reg.Register(paths[0]); err != nil {
		t.Fatal(err)
	}
	defer func() {
		s.Close()
		if err := reg.Close(); err != nil {
			t.Error(err)
		}
	}()
	const goroutines = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in := make([]float32, 8)
			tensor.NewRNG(uint64(g+1)).FillUniform(in, -1, 1)
			if _, err := s.Infer("m000", in); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := reg.Stats()
	if st.Loads != 1 {
		t.Fatalf("%d loads under concurrent fault-in, want 1", st.Loads)
	}
}

// TestModelStoreVersionedNameGoesThroughStore queries a resident model
// by the versioned ID its app is registered under. That query must
// still go through the store, pinning the model and bumping its LRU
// recency, exactly as a bare-name query does: otherwise an eviction
// can drain the app under it, and the LRU evicts the model it serves.
func TestModelStoreVersionedNameGoesThroughStore(t *testing.T) {
	testutil.NoLeaks(t)
	paths := exportModels(t, 4)
	// Budget ≈ 3 model files: faulting in the fourth evicts one.
	reg := modelstore.NewRegistry(modelstore.Config{BudgetBytes: 4 << 10})
	s := NewServer()
	s.SetLogger(silence)
	s.AttachModelStore(reg, storeCfg)
	for _, p := range paths {
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
	in := make([]float32, 8)
	for _, name := range []string{"m000", "m001", "m002", "m000@v1", "m003"} {
		if _, err := s.Infer(name, in); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	resident := map[string]bool{}
	for _, info := range reg.List() {
		resident[info.ID.String()] = info.Resident
	}
	if !resident["m000@v1"] || resident["m001@v1"] {
		t.Fatalf("m000 was queried after m001, so m001 is the LRU victim; residency %v", resident)
	}
}

func TestModelControlVerbs(t *testing.T) {
	testutil.NoLeaks(t)
	paths := exportModels(t, 2)
	reg := modelstore.NewRegistry(modelstore.Config{})
	s := NewServer()
	s.SetLogger(silence)
	s.AttachModelStore(reg, storeCfg)
	l, err := listen(t)
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(l)
	t.Cleanup(func() {
		s.Close()
		if err := reg.Close(); err != nil {
			t.Error(err)
		}
	})
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if msg, err := c.Models(); err != nil || msg != "no models registered" {
		t.Fatalf("Models() on empty store = %q, %v", msg, err)
	}
	for _, p := range paths {
		msg, err := c.ModelRegister(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(msg, "registered m") {
			t.Fatalf("ModelRegister = %q", msg)
		}
	}
	if msg, err := c.ModelLoad("m001"); err != nil || msg != "loaded m001@v1" {
		t.Fatalf("ModelLoad = %q, %v", msg, err)
	}
	list, err := c.Models()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(list, "\n")
	if len(lines) != 2 || !strings.Contains(lines[1], "m001@v1 resident=true") {
		t.Fatalf("Models() = %q", list)
	}
	stats, err := c.ModelStats()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stats, "registered=2") || !strings.Contains(stats, "loads=1") {
		t.Fatalf("ModelStats = %q", stats)
	}
	// Serve one query through the TCP path, then evict.
	in := make([]float32, 8)
	if _, err := c.Infer("m001", in); err != nil {
		t.Fatal(err)
	}
	if msg, err := c.ModelEvict("m001@v1"); err != nil || msg != "evicted m001@v1" {
		t.Fatalf("ModelEvict = %q, %v", msg, err)
	}
	if _, err := c.ModelEvict("m001"); err == nil {
		t.Fatal("evicting a non-resident model should fail")
	}
	if _, err := c.ModelLoad("ghost"); err == nil {
		t.Fatal("loading an unknown model should fail")
	}
	// A fresh query faults the evicted model back in.
	if _, err := c.Infer("m001", in); err != nil {
		t.Fatal(err)
	}
}

func TestModelVerbsWithoutStore(t *testing.T) {
	testutil.NoLeaks(t)
	s := NewServer()
	s.SetLogger(silence)
	defer s.Close()
	if _, err := s.control("model list"); err == nil || !strings.Contains(err.Error(), "no model store") {
		t.Fatalf("model verb without store = %v", err)
	}
	if _, err := s.Infer("anything", []float32{1}); err == nil {
		t.Fatal("query without store or app should fail")
	}
}

func TestModelEvictPinnedRefused(t *testing.T) {
	testutil.NoLeaks(t)
	paths := exportModels(t, 1)
	reg := modelstore.NewRegistry(modelstore.Config{})
	s := NewServer()
	s.SetLogger(silence)
	s.AttachModelStore(reg, storeCfg)
	if _, err := reg.Register(paths[0]); err != nil {
		t.Fatal(err)
	}
	defer func() {
		s.Close()
		if err := reg.Close(); err != nil {
			t.Error(err)
		}
	}()
	id := modelstore.ID{Name: "m000", Version: 1}
	if _, err := reg.Acquire(id); err != nil {
		t.Fatal(err)
	}
	if _, err := s.control("model evict m000"); err == nil || !errors.Is(errors.Unwrap(err), modelstore.ErrPinned) && !strings.Contains(err.Error(), "pinned") {
		t.Fatalf("evict pinned = %v", err)
	}
	reg.Release(id)
	if _, err := s.control("model evict m000"); err != nil {
		t.Fatal(err)
	}
}
