package models

import (
	"runtime"
	"sync"
	"testing"
)

// TestBuildCachedWeightsOffHeap: ASR's 126 MB of weights do not land
// on the Go heap, so they neither count toward the collector's heap
// goal nor double the process's footprint through it. BuildCached
// builds once per process and no earlier test in this package builds
// ASR, so this measures the build itself.
func TestBuildCachedWeightsOffHeap(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n := BuildCached(ASR)
	runtime.GC()
	runtime.ReadMemStats(&after)
	if d := int64(after.HeapAlloc) - int64(before.HeapAlloc); d >= 8<<20 {
		t.Fatalf("BuildCached(ASR) (%.0f MB of weights) raised HeapAlloc by %.1f MB, want < 8 MB",
			float64(n.WeightBytes())/1e6, float64(d)/1e6)
	}
}

// TestBuildCachedConcurrentFirstCall races many goroutines through the
// first BuildCached call for the same apps (run under -race via `make
// race`). The documented semantics: one build per app no matter how
// many callers arrive at once, every caller gets the same *nn.Net, and
// different apps do not serialise behind one another. Cheap DNN apps
// keep the test fast; the cache array is shared process state, so the
// test asserts identity rather than resetting it.
func TestBuildCachedConcurrentFirstCall(t *testing.T) {
	apps := []App{POS, CHK, NER, DIG}
	const callers = 8
	got := make([][]callResult, len(apps))
	var wg sync.WaitGroup
	for ai, a := range apps {
		got[ai] = make([]callResult, callers)
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(ai, c int, a App) {
				defer wg.Done()
				n := BuildCached(a)
				// Read shared state the builder wrote, so -race would
				// flag an unsynchronised publish.
				got[ai][c] = callResult{net: n, params: n.ParamCount()}
			}(ai, c, a)
		}
	}
	wg.Wait()
	for ai, a := range apps {
		ref := Build(a, 1)
		for c := 0; c < callers; c++ {
			r := got[ai][c]
			if r.net != got[ai][0].net {
				t.Fatalf("%s: caller %d got a different instance", a, c)
			}
			if r.params != ref.ParamCount() {
				t.Fatalf("%s: cached net has %d params, Build(a,1) has %d", a, r.params, ref.ParamCount())
			}
		}
	}
	// And the cached instance matches a direct seed-1 build's weights
	// (spot check one parameter of one app).
	cached := BuildCached(POS).Params()[0].W.Data()
	direct := Build(POS, 1).Params()[0].W.Data()
	for i := range direct {
		if cached[i] != direct[i] {
			t.Fatalf("POS cached weights diverge from Build(POS, 1) at %d", i)
		}
	}
}

type callResult struct {
	net    any
	params int
}

func TestBuildCachedOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BuildCached(NumApps) should panic")
		}
	}()
	BuildCached(NumApps)
}
