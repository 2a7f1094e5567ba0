package modelstore

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"djinn/internal/tensor"
	"djinn/internal/testutil"
)

// writeFleet exports n versions of small models into one directory and
// registers them, returning the registry and the IDs in registration
// order. Each model is a distinct network (different seed) under the
// name "m<i>".
func writeFleet(t *testing.T, reg *Registry, n int) []ID {
	t.Helper()
	dir := t.TempDir()
	ids := make([]ID, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("m%03d", i)
		path := filepath.Join(dir, name+".djw")
		if err := WriteFile(path, name, 1, testNet(uint64(i+1))); err != nil {
			t.Fatal(err)
		}
		meta, err := reg.Register(path)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = meta.ID()
	}
	return ids
}

func TestRegistryBudgetLRU(t *testing.T) {
	testutil.NoLeaks(t)
	// testNet files are ~1.1 KB; budget of 3 files' worth.
	reg := NewRegistry(Config{BudgetBytes: 4 * 1024})
	defer reg.Close()
	var evicted []ID
	reg.SetOnEvict(func(id ID) { evicted = append(evicted, id) })
	ids := writeFleet(t, reg, 5)

	use := func(id ID) {
		t.Helper()
		m, err := reg.Acquire(id)
		if err != nil {
			t.Fatal(err)
		}
		if m.ID() != id {
			t.Fatalf("acquired %s, want %s", m.ID(), id)
		}
		reg.Release(id)
	}
	use(ids[0])
	use(ids[1])
	use(ids[2])
	st := reg.Stats()
	if st.Resident != 3 || st.Evictions != 0 {
		t.Fatalf("after 3 loads: %+v", st)
	}
	if st.ResidentBytes > st.BudgetBytes {
		t.Fatalf("resident %d over budget %d", st.ResidentBytes, st.BudgetBytes)
	}
	// Touch 0 so 1 becomes LRU, then load a fourth: 1 must go.
	use(ids[0])
	use(ids[3])
	if len(evicted) != 1 || evicted[0] != ids[1] {
		t.Fatalf("evicted %v, want [%s]", evicted, ids[1])
	}
	st = reg.Stats()
	if st.Resident != 3 || st.ResidentBytes > st.BudgetBytes {
		t.Fatalf("after eviction: %+v", st)
	}
	if st.PeakBytes > st.BudgetBytes {
		t.Fatalf("peak %d exceeded budget %d", st.PeakBytes, st.BudgetBytes)
	}
	if st.Loads != 4 || st.Faults != 4 {
		t.Fatalf("loads/faults %d/%d, want 4/4", st.Loads, st.Faults)
	}
	// A model evicted and re-acquired reloads transparently.
	use(ids[1])
	if st := reg.Stats(); st.Loads != 5 || st.Evictions != 2 {
		t.Fatalf("after reload: %+v", st)
	}
}

func TestRegistryPinsBlockEviction(t *testing.T) {
	testutil.NoLeaks(t)
	reg := NewRegistry(Config{BudgetBytes: 2 * 1024}) // fits ~1 model
	defer reg.Close()
	ids := writeFleet(t, reg, 2)

	if _, err := reg.Acquire(ids[0]); err != nil {
		t.Fatal(err)
	}
	// Explicit evict of a pinned model fails.
	if err := reg.Evict(ids[0]); !errors.Is(err, ErrPinned) {
		t.Fatalf("Evict(pinned) = %v, want ErrPinned", err)
	}
	// Loading a second model with the only evictable model pinned
	// overshoots the budget transiently instead of failing.
	m1, err := reg.Acquire(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	st := reg.Stats()
	if st.Resident != 2 {
		t.Fatalf("want transient overshoot with both resident, got %+v", st)
	}
	if st.ResidentBytes <= st.BudgetBytes {
		t.Fatalf("expected ResidentBytes %d > budget %d while all pinned", st.ResidentBytes, st.BudgetBytes)
	}
	reg.Release(ids[1])
	_ = m1
	reg.Release(ids[0])
	// Now the budget can be restored by the next load.
	if err := reg.Evict(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := reg.Evict(ids[0]); !errors.Is(err, ErrNotResident) {
		t.Fatalf("double Evict = %v, want ErrNotResident", err)
	}
	if err := reg.Evict(ID{Name: "ghost", Version: 1}); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("Evict(unknown) = %v, want ErrNotRegistered", err)
	}
}

func TestRegistryResolve(t *testing.T) {
	testutil.NoLeaks(t)
	reg := NewRegistry(Config{})
	defer reg.Close()
	dir := t.TempDir()
	for _, v := range []int{1, 3, 2} {
		path := ExportPath(dir, "imc", v)
		if err := WriteFile(path, "imc", v, testNet(uint64(v))); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Register(path); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := reg.Register(ExportPath(dir, "imc", 2)); err == nil {
		t.Fatal("re-registering imc@v2 should fail")
	}
	if id, ok := reg.Resolve("imc"); !ok || id.Version != 3 {
		t.Fatalf("Resolve(imc) = %v %v, want imc@v3", id, ok)
	}
	if id, ok := reg.Resolve("imc@v2"); !ok || id.Version != 2 {
		t.Fatalf("Resolve(imc@v2) = %v %v", id, ok)
	}
	if _, ok := reg.Resolve("imc@v9"); ok {
		t.Fatal("Resolve(imc@v9) should miss")
	}
	if _, ok := reg.Resolve("dig"); ok {
		t.Fatal("Resolve(dig) should miss")
	}
	if _, ok := reg.Resolve("bad name"); ok {
		t.Fatal("Resolve of invalid name should miss")
	}
	infos := reg.List()
	if len(infos) != 3 || infos[0].ID.Version != 1 || infos[2].ID.Version != 3 {
		t.Fatalf("List = %+v", infos)
	}
}

func TestRegistryConcurrentAcquireSingleLoad(t *testing.T) {
	testutil.NoLeaks(t)
	reg := NewRegistry(Config{})
	defer reg.Close()
	ids := writeFleet(t, reg, 1)
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := reg.Acquire(ids[0])
			if err != nil {
				errs <- err
				return
			}
			// Run a real forward so -race sees concurrent readers of
			// the shared mapped weights.
			plan := m.Net().Compile(1)
			tensor.NewRNG(9).FillUniform(plan.In(1).Data(), -1, 1)
			plan.Run(1)
			reg.Release(ids[0])
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := reg.Stats()
	if st.Loads != 1 {
		t.Fatalf("%d loads for one model under concurrent acquire, want 1 (single flight)", st.Loads)
	}
	if st.Faults != 1 {
		t.Fatalf("faults = %d, want 1", st.Faults)
	}
}

func TestRegistryCloseRefusesPinned(t *testing.T) {
	reg := NewRegistry(Config{})
	ids := writeFleet(t, reg, 1)
	if _, err := reg.Acquire(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := reg.Close(); !errors.Is(err, ErrPinned) {
		t.Fatalf("Close with pin = %v, want ErrPinned", err)
	}
	reg.Release(ids[0])
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if st := reg.Stats(); st.Resident != 0 || st.ResidentBytes != 0 {
		t.Fatalf("after Close: %+v", st)
	}
}
