package modelstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Registry errors surfaced to control-plane callers.
var (
	// ErrNotRegistered is returned for an ID the registry has never
	// been told about.
	ErrNotRegistered = errors.New("modelstore: model not registered")
	// ErrNotResident is returned by Evict for a registered model that
	// is not loaded.
	ErrNotResident = errors.New("modelstore: model not resident")
	// ErrPinned is returned by Evict when in-flight queries still pin
	// the model.
	ErrPinned = errors.New("modelstore: model pinned by in-flight queries")
)

// Config parameterises a Registry.
type Config struct {
	// BudgetBytes caps the total Bytes() of resident models; 0 means
	// unlimited. The budget is enforced by LRU eviction of unpinned
	// models before each load. When every resident model is pinned the
	// load proceeds anyway (a transient overshoot) rather than failing
	// queries: the paper's service sheds load at admission, not by
	// refusing to page in the model a query already admitted against.
	BudgetBytes int64
	// Logf receives lifecycle events; nil discards them.
	Logf func(format string, args ...any)
}

// Info is one model's row in Registry.List.
type Info struct {
	ID       ID
	Path     string
	Resident bool
	Pins     int
	Bytes    int64 // residency cost (file size)
	Params   int64 // parameter count
}

// Stats is a snapshot of the registry's gauges and counters, exported
// as djinn_model_* on the admin plane.
type Stats struct {
	Registered    int   // models known
	Resident      int   // models currently loaded
	ResidentBytes int64 // bytes currently mapped
	PeakBytes     int64 // high-water ResidentBytes
	BudgetBytes   int64 // configured cap (0 = unlimited)
	Loads         int64 // successful loads (demand + explicit)
	Faults        int64 // loads triggered by a query arriving for a non-resident model
	Evictions     int64 // models unloaded (LRU + explicit)
	LoadErrors    int64 // failed load attempts
}

// Registry owns model residency for a serving process: it knows every
// registered model version, loads them on demand (or explicitly),
// pins them while queries are in flight, and evicts least-recently
// used models to stay under a byte budget.
//
// Locking: mu guards all registry state and is never held across I/O.
// lifecycle serialises the slow paths (load, evict) so at most one
// model is being mapped or unmapped at a time — concurrent queries
// for the same cold model trigger one load, not N ("single flight").
// The OnEvict hook runs holding lifecycle but not mu, after the
// victim is unpublished (no new pins possible) and before its mapping
// is closed (late readers of registry state never see a dangling
// model).
type Registry struct {
	cfg     Config
	onEvict func(ID)

	lifecycle sync.Mutex // serialises load/evict slow paths

	mu            sync.Mutex
	entries       map[ID]*entry
	clock         int64 // logical LRU clock; bumped on each use
	residentBytes int64
	peakBytes     int64
	loads         int64
	faults        int64
	evictions     int64
	loadErrors    int64
}

type entry struct {
	id      ID
	path    string
	bytes   int64 // expected residency cost, from the header
	params  int64
	model   *Model // non-nil while resident
	pins    int    // in-flight acquisitions
	lastUse int64  // clock value at last acquire/load
}

// NewRegistry returns an empty registry.
func NewRegistry(cfg Config) *Registry {
	return &Registry{cfg: cfg, entries: map[ID]*entry{}}
}

// SetOnEvict installs a hook called for each model the registry
// unloads, after the model is unpublished (no new pins can be taken)
// and before its mapping is closed. The service tier uses it to drain
// and unregister the model's application so no worker can touch the
// pages being unmapped. The hook must not call back into the
// Registry.
func (r *Registry) SetOnEvict(fn func(ID)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onEvict = fn
}

func (r *Registry) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// Register adds the weight file at path to the registry without
// loading it: one header read yields the model's identity and
// residency cost. Registering the same ID twice is an error.
func (r *Registry) Register(path string) (*Meta, error) {
	meta, err := ReadMeta(path)
	if err != nil {
		return nil, err
	}
	id := meta.ID()
	var params int64
	for _, s := range meta.Params {
		params += int64(s.Elems())
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.entries[id]; ok {
		return nil, fmt.Errorf("modelstore: %s already registered", id)
	}
	r.entries[id] = &entry{id: id, path: path, bytes: meta.FileSize, params: params}
	return meta, nil
}

// Resolve maps a request's model name to a registered ID: "name@vN"
// resolves exactly; a bare "name" resolves to its highest registered
// version (so clients that do not care about versions always get the
// newest model, and canary routing picks versions explicitly).
func (r *Registry) Resolve(name string) (ID, bool) {
	want, err := ParseID(name)
	if err != nil {
		return ID{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if want.Versioned() {
		_, ok := r.entries[want]
		return want, ok
	}
	best := ID{}
	for id := range r.entries {
		if id.Name == want.Name && id.Version > best.Version {
			best = id
		}
	}
	return best, best.Version > 0
}

// Acquire returns the model, loading it if necessary, with one pin
// held. The caller must Release the ID when its query completes; a
// pinned model is never evicted, so the mapping stays valid for the
// query's whole lifetime.
func (r *Registry) Acquire(id ID) (*Model, error) {
	r.mu.Lock()
	e, ok := r.entries[id]
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrNotRegistered, id)
	}
	if e.model != nil {
		m := e.model
		e.pins++
		r.touchLocked(e)
		r.mu.Unlock()
		return m, nil
	}
	r.mu.Unlock()
	return r.loadSlow(e, true)
}

// Release drops one Acquire pin.
func (r *Registry) Release(id ID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok || e.pins <= 0 {
		panic(fmt.Sprintf("modelstore: Release(%s) without Acquire", id))
	}
	e.pins--
}

// Load makes the model resident without holding a pin: the explicit
// pre-load path behind the `model load` control verb.
func (r *Registry) Load(id ID) error {
	r.mu.Lock()
	e, ok := r.entries[id]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotRegistered, id)
	}
	if e.model != nil {
		r.touchLocked(e)
		r.mu.Unlock()
		return nil
	}
	r.mu.Unlock()
	if _, err := r.loadSlow(e, false); err != nil {
		return err
	}
	r.Release(id)
	return nil
}

// touchLocked bumps the entry's LRU recency. Caller holds mu.
func (r *Registry) touchLocked(e *entry) {
	r.clock++
	e.lastUse = r.clock
}

// loadSlow is the cold path: serialise behind lifecycle, re-check,
// make room under the budget, map the file, and publish. Returns with
// one pin held. demand marks loads triggered by a query (a "model
// fault") as opposed to explicit pre-loads.
func (r *Registry) loadSlow(e *entry, demand bool) (*Model, error) {
	r.lifecycle.Lock()
	defer r.lifecycle.Unlock()

	// Another Acquire may have loaded it while we waited.
	r.mu.Lock()
	if e.model != nil {
		m := e.model
		e.pins++
		r.touchLocked(e)
		r.mu.Unlock()
		return m, nil
	}
	r.mu.Unlock()

	r.makeRoom(e.bytes)
	m, err := Open(e.path)
	if err != nil {
		r.mu.Lock()
		r.loadErrors++
		r.mu.Unlock()
		return nil, err
	}
	if got := m.ID(); got != e.id {
		// The file changed identity since registration; refuse to
		// serve it under the registered name.
		m.Close()
		r.mu.Lock()
		r.loadErrors++
		r.mu.Unlock()
		return nil, fmt.Errorf("modelstore: %s now contains %s (file replaced?)", e.path, got)
	}
	r.mu.Lock()
	e.model = m
	e.pins++
	r.touchLocked(e)
	r.residentBytes += m.Bytes()
	if r.residentBytes > r.peakBytes {
		r.peakBytes = r.residentBytes
	}
	r.loads++
	if demand {
		r.faults++
	}
	over := r.cfg.BudgetBytes > 0 && r.residentBytes > r.cfg.BudgetBytes
	r.mu.Unlock()
	r.logf("modelstore: loaded %s (%d bytes, mapped=%v)", e.id, m.Bytes(), m.Mapped())
	if over {
		r.logf("modelstore: budget overshoot: all resident models pinned while loading %s", e.id)
	}
	return m, nil
}

// makeRoom evicts least-recently-used unpinned models until need
// bytes fit under the budget. Caller holds lifecycle (not mu). If
// every resident model is pinned the loop stops: the load overshoots
// transiently rather than failing the query.
func (r *Registry) makeRoom(need int64) {
	if r.cfg.BudgetBytes <= 0 {
		return
	}
	for {
		r.mu.Lock()
		if r.residentBytes+need <= r.cfg.BudgetBytes {
			r.mu.Unlock()
			return
		}
		var victim *entry
		for _, e := range r.entries {
			if e.model == nil || e.pins > 0 {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			r.mu.Unlock()
			return
		}
		m := victim.model
		victim.model = nil // unpublish: no new pins can be taken
		r.residentBytes -= m.Bytes()
		r.evictions++
		r.mu.Unlock()
		r.evictUnpublished(victim.id, m)
	}
}

// evictUnpublished finishes an eviction once the victim is
// unpublished: notify the service tier (which drains the model's
// application), then unmap. Caller holds lifecycle.
func (r *Registry) evictUnpublished(id ID, m *Model) {
	if r.onEvict != nil {
		r.onEvict(id)
	}
	m.Close()
	r.logf("modelstore: evicted %s (%d bytes)", id, m.Bytes())
}

// Evict explicitly unloads a model. It fails with ErrPinned if
// queries are in flight and ErrNotResident if the model is not
// loaded.
func (r *Registry) Evict(id ID) error {
	r.lifecycle.Lock()
	defer r.lifecycle.Unlock()
	r.mu.Lock()
	e, ok := r.entries[id]
	if !ok {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotRegistered, id)
	}
	if e.model == nil {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrNotResident, id)
	}
	if e.pins > 0 {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s (%d in flight)", ErrPinned, id, e.pins)
	}
	m := e.model
	e.model = nil
	r.residentBytes -= m.Bytes()
	r.evictions++
	r.mu.Unlock()
	r.evictUnpublished(id, m)
	return nil
}

// List returns every registered model, sorted by ID.
func (r *Registry) List() []Info {
	r.mu.Lock()
	out := make([]Info, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, Info{
			ID:       e.id,
			Path:     e.path,
			Resident: e.model != nil,
			Pins:     e.pins,
			Bytes:    e.bytes,
			Params:   e.params,
		})
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID.Name != out[j].ID.Name {
			return out[i].ID.Name < out[j].ID.Name
		}
		return out[i].ID.Version < out[j].ID.Version
	})
	return out
}

// Stats returns a snapshot of the registry's counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Stats{
		Registered:    len(r.entries),
		ResidentBytes: r.residentBytes,
		PeakBytes:     r.peakBytes,
		BudgetBytes:   r.cfg.BudgetBytes,
		Loads:         r.loads,
		Faults:        r.faults,
		Evictions:     r.evictions,
		LoadErrors:    r.loadErrors,
	}
	for _, e := range r.entries {
		if e.model != nil {
			st.Resident++
		}
	}
	return st
}

// Close unloads every resident model. It must be called after the
// serving tier has drained (no pins); it returns ErrPinned if any
// model is still in use. The OnEvict hook is not invoked: Close is
// shutdown, and the server tears its applications down itself.
func (r *Registry) Close() error {
	r.lifecycle.Lock()
	defer r.lifecycle.Unlock()
	r.mu.Lock()
	var victims []*Model
	for _, e := range r.entries {
		if e.model == nil {
			continue
		}
		if e.pins > 0 {
			r.mu.Unlock()
			return fmt.Errorf("%w: %s", ErrPinned, e.id)
		}
		victims = append(victims, e.model)
		r.residentBytes -= e.model.Bytes()
		e.model = nil
	}
	r.mu.Unlock()
	for _, m := range victims {
		m.Close()
	}
	return nil
}
