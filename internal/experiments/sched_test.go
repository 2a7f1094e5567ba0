package experiments

import (
	"testing"
	"time"

	"djinn/internal/service"
)

// TestSchedSweepSmoke runs a miniature scheduler sweep — one replica,
// two configs, two rates, short drives — and checks the cells are
// internally consistent. It deliberately avoids asserting on absolute
// latency: CI machines are noisy; the full matrix is `-exp sched`.
func TestSchedSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives live load for ~2s")
	}
	const slo = 250 * time.Millisecond
	cfgs := []SchedConfig{
		{"static-1", service.AppConfig{BatchInstances: 1, Workers: 1}},
		{"adaptive", service.AppConfig{BatchInstances: 16, Workers: 1, SLO: slo}},
	}
	rates := []float64{60, 120}
	cells := SchedSweep(cfgs, SchedSweepOptions{
		Replicas:    1,
		SLO:         slo,
		Deadline:    slo + slo/5,
		Rates:       rates,
		Warmup:      150 * time.Millisecond,
		Measure:     400 * time.Millisecond,
		MaxInflight: 64,
		Fixed:       2 * time.Millisecond,
		Per:         200 * time.Microsecond,
	})
	if len(cells) != len(cfgs)*len(rates) {
		t.Fatalf("got %d cells, want %d", len(cells), len(cfgs)*len(rates))
	}
	for _, c := range cells {
		if c.Skipped {
			continue
		}
		if c.Res.Issued() != c.Res.Queries+c.Res.Errors+c.Res.Shed+c.Res.Expired {
			t.Errorf("%s@%.0f: Issued() inconsistent: %+v", c.Config, c.Rate, c.Res)
		}
		if c.Res.Queries == 0 {
			t.Errorf("%s@%.0f: served nothing", c.Config, c.Rate)
		}
		if att := c.Res.SLOAttainment(); att < 0 || att > 1 {
			t.Errorf("%s@%.0f: attainment %v out of range", c.Config, c.Rate, att)
		}
		switch c.Config {
		case "adaptive":
			if c.Batch < 1 || c.Batch > 16 {
				t.Errorf("adaptive@%.0f: live batch %d outside [1,16]", c.Rate, c.Batch)
			}
		case "static-1":
			if c.Batch != 0 {
				t.Errorf("static-1@%.0f: reported live batch %d, want 0", c.Rate, c.Batch)
			}
		}
	}
	// Both configs have ample capacity at these rates (2.2ms/query vs
	// 60–120 q/s offered) and a generous SLO; each should sustain the
	// low rate even on a loaded CI box.
	for _, c := range cells {
		if c.Rate == rates[0] && !c.Sustainable {
			t.Errorf("%s@%.0f not sustainable: p99=%v res=%+v", c.Config, c.Rate, c.Res.Latency.P99, c.Res)
		}
	}
}

// TestSchedSweepCutsLadderAfterCliff overloads a 1-replica static-1
// fleet (service time 10ms/query ⇒ ~100 q/s capacity) far past
// capacity and checks the ladder is cut after two consecutive
// unsustainable rates.
func TestSchedSweepCutsLadderAfterCliff(t *testing.T) {
	if testing.Short() {
		t.Skip("drives live load for ~2s")
	}
	cfgs := []SchedConfig{
		{"static-1", service.AppConfig{BatchInstances: 1, Workers: 1}},
	}
	cells := SchedSweep(cfgs, SchedSweepOptions{
		Replicas:    1,
		SLO:         30 * time.Millisecond,
		Rates:       []float64{600, 900, 1200},
		Warmup:      100 * time.Millisecond,
		Measure:     300 * time.Millisecond,
		MaxInflight: 64,
		Fixed:       10 * time.Millisecond,
		Per:         time.Millisecond,
	})
	if len(cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(cells))
	}
	for i, c := range cells[:2] {
		if c.Skipped {
			t.Fatalf("cell %d skipped before two failures observed", i)
		}
		if c.Sustainable {
			t.Errorf("static-1@%.0f sustainable at 6x capacity: %+v", c.Rate, c.Res)
		}
	}
	if !cells[2].Skipped {
		t.Error("third rung not skipped after two consecutive failures")
	}
	// 6x overload with a deadline: the lost queries must show up as
	// shed or expired, and there must be many of them.
	lost := cells[0].Res.Shed + cells[0].Res.Expired
	if lost == 0 {
		t.Errorf("overloaded cell lost nothing: %+v", cells[0].Res)
	}
}
