package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestGatewayAcceptance runs a shrunk gateway experiment and checks
// what it must do on any host: both cache arms serve queries, the
// cached arm hits, and one pipeline request leaves a single merged trace
// showing all three stages. How much faster the cache and the pipeline
// are is wall-clock and host-dependent; `djinn-bench -exp gateway`
// records those numbers (EXPERIMENTS.md) instead of this test
// asserting them.
func TestGatewayAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("gateway experiment is seconds-long; skipped in -short")
	}
	res, err := RunGateway(GatewayOptions{
		Replicas:     2,
		Sentences:    8,
		Rate:         20000,
		Drive:        300 * time.Millisecond,
		MaxInflight:  4,
		AudioSeconds: 0.1,
		Iterations:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Uncached.Queries == 0 || res.Cached.Queries == 0 {
		t.Fatalf("empty arm: uncached=%d cached=%d", res.Uncached.Queries, res.Cached.Queries)
	}
	if res.Cache.Hits == 0 {
		t.Error("cache recorded zero hits")
	}
	if res.StageSpans != 3 {
		t.Errorf("merged trace has %d stage spans, want 3:\n%s", res.StageSpans, res.Merged)
	}
	for _, stage := range []string{"stage:asr", "stage:pos", "stage:ner"} {
		if !strings.Contains(res.Merged, stage) {
			t.Errorf("merged trace missing %s:\n%s", stage, res.Merged)
		}
	}
}
