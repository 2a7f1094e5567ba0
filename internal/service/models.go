package service

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"djinn/internal/modelstore"
)

// AttachModelStore connects a model-store registry to the server: a
// query whose application name is not a registered app is resolved
// against the store ("imc" → newest version, "imc@v2" → exactly v2),
// the model is faulted in (mmap + plan compilation) under the store's
// memory budget, and an application is registered for it on the fly
// with cfg's batching parameters. When the store evicts a model, the
// server drains and unregisters its application before the mapping is
// unmapped.
//
// Attach before serving. The registry must not be shared with another
// server: eviction drains are wired to this one.
func (s *Server) AttachModelStore(reg *modelstore.Registry, cfg AppConfig) {
	s.mu.Lock()
	s.store = reg
	s.storeCfg = cfg.withDefaults()
	s.mu.Unlock()
	reg.SetOnEvict(func(id modelstore.ID) {
		// Unknown is fine: the model may have been loaded (e.g. by an
		// explicit `model load`) without ever serving a query.
		if err := s.Unregister(id.String()); err == nil {
			s.logf("service: drained %s for eviction", id)
		}
	})
}

// ModelRegistry returns the attached model store, or nil.
func (s *Server) ModelRegistry() *modelstore.Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store
}

// ModelStats returns the attached store's counters; ok is false when
// no store is attached.
func (s *Server) ModelStats() (modelstore.Stats, bool) {
	reg := s.ModelRegistry()
	if reg == nil {
		return modelstore.Stats{}, false
	}
	return reg.Stats(), true
}

// dispatchStored serves a query for a store model, faulting it in if
// it is not resident. The model is pinned for the query's whole
// lifetime — Acquire before enqueue, Release after the response — so
// eviction can never drain the app under a queued query or unmap
// pages a forward pass is reading. That holds for every name the
// model answers to, including the full versioned ID its app is
// registered under, so two versions of one model serve side by side.
func (s *Server) dispatchStored(ctx context.Context, appName string, in []float32) ([]float32, error) {
	reg := s.ModelRegistry()
	if reg == nil {
		return nil, fmt.Errorf("service: unknown application %q", appName)
	}
	id, ok := reg.Resolve(appName)
	if !ok {
		return nil, fmt.Errorf("service: unknown application %q", appName)
	}
	// An eviction or server drain can close the app between our pin
	// and the enqueue only in narrow races (the pin blocks the normal
	// eviction path); retry a bounded number of times rather than
	// failing a query that could be served by faulting the model back
	// in.
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		m, err := reg.Acquire(id)
		if err != nil {
			return nil, fmt.Errorf("service: loading model %s: %w", id, err)
		}
		a, err := s.ensureStoreApp(id, m)
		if err != nil {
			reg.Release(id)
			return nil, err
		}
		out, err := s.dispatchApp(ctx, a, in)
		reg.Release(id)
		if err != nil && errors.Is(err, ErrShuttingDown) && !s.isClosing() {
			lastErr = err
			continue
		}
		return out, err
	}
	return nil, lastErr
}

func (s *Server) isClosing() bool {
	select {
	case <-s.closing:
		return true
	default:
		return false
	}
}

// ensureStoreApp returns the application serving a pinned model,
// registering it on first use. Two queries can race the first fault-in;
// the loser of the Register race adopts the winner's app.
func (s *Server) ensureStoreApp(id modelstore.ID, m *modelstore.Model) (*app, error) {
	name := id.String()
	if a, ok := s.app(name); ok {
		return a, nil
	}
	if err := s.register(name, m.Net(), s.storeCfg, true); err != nil {
		if a, ok := s.app(name); ok {
			return a, nil
		}
		return nil, err
	}
	a, _ := s.app(name)
	return a, nil
}

// Activate warms one application for serving on this replica — the
// control plane's placement hook. A name that is already a registered
// app is a no-op; otherwise the name is resolved against the attached
// model store, the model is faulted in under the store's budget (mmap +
// plan compilation), and its application is registered ahead of any
// traffic, so the first placed query pays no cold-start.
func (s *Server) Activate(name string) error {
	if _, ok := s.app(name); ok {
		return nil
	}
	reg := s.ModelRegistry()
	if reg == nil {
		return fmt.Errorf("service: cannot activate %q: no model store attached", name)
	}
	id, ok := reg.Resolve(name)
	if !ok {
		return fmt.Errorf("service: cannot activate unknown application %q", name)
	}
	if a, ok := s.app(id.String()); ok && a != nil {
		return nil
	}
	m, err := reg.Acquire(id)
	if err != nil {
		return fmt.Errorf("service: activating %s: %w", id, err)
	}
	defer reg.Release(id)
	_, err = s.ensureStoreApp(id, m)
	return err
}

// Deactivate drains one application off this replica — the inverse
// placement hook, run after the control plane has moved the app's
// traffic elsewhere. It reuses the Unregister drain (gate close, batch
// under assembly completes, workers exit) and then, when the app was
// store-backed, evicts the model to return its budget. Eviction is best
// effort: a pin held by an in-flight straggler keeps the mapping until
// the store's next eviction pass. Deactivating an app that was never
// active on this replica is a no-op.
func (s *Server) Deactivate(name string) error {
	target := name
	reg := s.ModelRegistry()
	var id modelstore.ID
	resolved := false
	if reg != nil {
		if rid, ok := reg.Resolve(name); ok {
			id, resolved = rid, true
			target = rid.String()
		}
	}
	err := s.Unregister(target)
	if err != nil && target != name {
		if e2 := s.Unregister(name); e2 == nil {
			err = nil
		}
	}
	if resolved {
		_ = reg.Evict(id)
		return nil
	}
	return err
}

// controlModel answers the "model" control verb family:
//
//	model list                 one line per registered model
//	model stats                registry counters (the djinn_model_* gauges)
//	model register <path>      register a weight file on the server's disk
//	model load <name|id>       fault a model in ahead of traffic
//	model evict <name|id>      unload a model (fails if queries are in flight)
func (s *Server) controlModel(args []string) (string, error) {
	reg := s.ModelRegistry()
	if reg == nil {
		return "", errors.New("service: no model store attached")
	}
	if len(args) == 0 {
		return "", errors.New("service: usage: model list|stats|register <path>|load <id>|evict <id>")
	}
	resolve := func(arg string) (modelstore.ID, error) {
		id, ok := reg.Resolve(arg)
		if !ok {
			return modelstore.ID{}, fmt.Errorf("service: unknown model %q", arg)
		}
		return id, nil
	}
	switch args[0] {
	case "list":
		infos := reg.List()
		if len(infos) == 0 {
			return "no models registered", nil
		}
		var sb strings.Builder
		for i, info := range infos {
			if i > 0 {
				sb.WriteByte('\n')
			}
			fmt.Fprintf(&sb, "%s resident=%v pins=%d bytes=%d params=%d",
				info.ID, info.Resident, info.Pins, info.Bytes, info.Params)
		}
		return sb.String(), nil
	case "stats":
		st := reg.Stats()
		return fmt.Sprintf("registered=%d resident=%d resident_bytes=%d peak_bytes=%d budget_bytes=%d loads=%d faults=%d evictions=%d load_errors=%d",
			st.Registered, st.Resident, st.ResidentBytes, st.PeakBytes, st.BudgetBytes,
			st.Loads, st.Faults, st.Evictions, st.LoadErrors), nil
	case "register":
		if len(args) != 2 {
			return "", errors.New("service: usage: model register <path>")
		}
		meta, err := reg.Register(args[1])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("registered %s (%d bytes, %d params)", meta.ID(), meta.FileSize, len(meta.Params)), nil
	case "load":
		if len(args) != 2 {
			return "", errors.New("service: usage: model load <name|name@vN>")
		}
		id, err := resolve(args[1])
		if err != nil {
			return "", err
		}
		if err := reg.Load(id); err != nil {
			return "", err
		}
		return "loaded " + id.String(), nil
	case "evict":
		if len(args) != 2 {
			return "", errors.New("service: usage: model evict <name|name@vN>")
		}
		id, err := resolve(args[1])
		if err != nil {
			return "", err
		}
		if err := reg.Evict(id); err != nil {
			return "", err
		}
		return "evicted " + id.String(), nil
	default:
		return "", fmt.Errorf("service: unknown model command %q", args[0])
	}
}
