package sched

import (
	"testing"
	"time"
)

// ms shortens synthetic latencies.
func ms(n float64) time.Duration { return time.Duration(n * float64(time.Millisecond)) }

// drive feeds a synthetic p99 sequence and returns every batch size
// the controller passed through (after each observation).
func drive(a *AIMD, seq []time.Duration) []int {
	sizes := make([]int, 0, len(seq))
	for _, p99 := range seq {
		a.Observe(p99, false)
		sizes = append(sizes, a.Batch())
	}
	return sizes
}

// repeat builds a constant latency sequence.
func repeat(d time.Duration, n int) []time.Duration {
	seq := make([]time.Duration, n)
	for i := range seq {
		seq[i] = d
	}
	return seq
}

// TestAIMDTable drives the controller as a pure function through the
// three canonical regimes — stable under-SLO traffic, a step overload,
// and a transient burst — and asserts convergence plus bounded
// oscillation at equilibrium.
func TestAIMDTable(t *testing.T) {
	cfg := AIMDConfig{Max: 32, SLO: ms(50)}
	cases := []struct {
		name string
		seq  []time.Duration
		// wantFinal is the expected batch size after the sequence;
		// wantMaxSwing bounds |size[i+1]-size[i]| over the final
		// quarter of the run (the converged regime).
		wantFinal    func(got int) bool
		wantMaxSwing int
	}{
		{
			// Stable: p99 always well under the SLO. The batch must
			// ramp to Max and stay there.
			name:         "stable-under-slo",
			seq:          repeat(ms(10), 64),
			wantFinal:    func(got int) bool { return got == 32 },
			wantMaxSwing: 0,
		},
		{
			// Dead band: p99 between Headroom×SLO and SLO. Hold
			// wherever the ramp was when the band was entered.
			name:         "dead-band-holds",
			seq:          append(repeat(ms(10), 8), repeat(ms(45), 32)...),
			wantFinal:    func(got int) bool { return got == 9 },
			wantMaxSwing: 0,
		},
		{
			// Step overload: after ramping, p99 jumps past the SLO and
			// stays there. The size must collapse to 1 and hold (every
			// overload halves and re-arms the ceiling; nothing recovers
			// while p99 stays high).
			name:         "step-overload",
			seq:          append(repeat(ms(10), 40), repeat(ms(80), 24)...),
			wantFinal:    func(got int) bool { return got == 1 },
			wantMaxSwing: 0,
		},
		{
			// Burst: one overload spike, then healthy again. The size
			// must recover toward the ceiling and then probe past it
			// slowly — never oscillating by more than one step at a time
			// in the recovery regime.
			name:         "burst-recovers",
			seq:          append(append(repeat(ms(10), 40), ms(80)), repeat(ms(10), 40)...),
			wantFinal:    func(got int) bool { return got >= 28 },
			wantMaxSwing: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAIMD(cfg)
			sizes := drive(a, tc.seq)
			final := sizes[len(sizes)-1]
			if !tc.wantFinal(final) {
				t.Errorf("final batch = %d (trajectory %v)", final, sizes)
			}
			// Oscillation bound over the final quarter of the run.
			for i := len(sizes) * 3 / 4; i < len(sizes)-1; i++ {
				swing := sizes[i+1] - sizes[i]
				if swing < 0 {
					swing = -swing
				}
				if swing > tc.wantMaxSwing {
					t.Fatalf("step %d→%d swings %d→%d, beyond %d (trajectory %v)",
						i, i+1, sizes[i], sizes[i+1], tc.wantMaxSwing, sizes)
				}
			}
		})
	}
}

// TestAIMDPressureClimbsPastCeiling: admission pressure with the p99
// inside the SLO is a capacity signal — the size must climb one step
// per observation, straight through both the dead band and a ceiling
// armed by a cold-start overload, until either Max or a genuine SLO
// breach stops it. This is the escape from the stuck equilibrium where
// admission holds queue delay at exactly the grow band's upper edge.
func TestAIMDPressureClimbsPastCeiling(t *testing.T) {
	a := NewAIMD(AIMDConfig{Max: 32, SLO: ms(50)})
	// Cold-start overload at 1 floors the ceiling at 1.
	a.Observe(ms(200), false)
	if a.Batch() != 1 {
		t.Fatalf("batch = %d after cold overload, want 1", a.Batch())
	}
	// Dead-band p99 (≥ Headroom×SLO) with pressure: without the signal
	// this holds at 1 forever; with it, one step per observation.
	for want := 2; want <= 10; want++ {
		a.Observe(ms(45), true)
		if a.Batch() != want {
			t.Fatalf("pressured climb stalled at %d, want %d", a.Batch(), want)
		}
	}
	// A real SLO breach still backs off and re-arms the ceiling.
	a.Observe(ms(80), true)
	if a.Batch() != 5 {
		t.Fatalf("batch = %d after breach under pressure, want 5", a.Batch())
	}
	// Pressure at Max is a no-op for the size.
	for i := 0; i < 64; i++ {
		a.Observe(ms(45), true)
	}
	if a.Batch() != 32 {
		t.Fatalf("batch = %d after sustained pressure, want Max 32", a.Batch())
	}
}

// TestAIMDBounds: the size never leaves [1, Max] no matter the input,
// including zero and absurd latencies.
func TestAIMDBounds(t *testing.T) {
	a := NewAIMD(AIMDConfig{Max: 8, SLO: ms(20)})
	inputs := []time.Duration{0, ms(1), ms(1000), ms(19), ms(21), 0, ms(5), ms(500), ms(5)}
	for i := 0; i < 100; i++ {
		a.Observe(inputs[i%len(inputs)], i%3 == 0)
		if b := a.Batch(); b < 1 || b > 8 {
			t.Fatalf("batch %d left [1,8] after observation %d", b, i)
		}
	}
}

// TestAIMDCeilingProbes: after an overload at size s, the controller
// must not blow straight past s-1 again; it sits at the ceiling for
// ProbeAfter healthy rounds before each single probe step.
func TestAIMDCeilingProbes(t *testing.T) {
	a := NewAIMD(AIMDConfig{Max: 32, SLO: ms(50), ProbeAfter: 4})
	// Ramp to 10, then overload: ceiling = 9, size halves to 5.
	drive(a, repeat(ms(10), 9))
	if a.Batch() != 10 {
		t.Fatalf("ramp reached %d, want 10", a.Batch())
	}
	a.Observe(ms(80), false)
	if a.Batch() != 5 {
		t.Fatalf("backoff to %d, want 5", a.Batch())
	}
	// Healthy rounds: climb 5→9, then exactly 4 more rounds at the
	// ceiling before the probe to 10.
	sizes := drive(a, repeat(ms(10), 4))
	if got := sizes[len(sizes)-1]; got != 9 {
		t.Fatalf("recovered to %d, want ceiling 9 (trajectory %v)", got, sizes)
	}
	sizes = drive(a, repeat(ms(10), 4))
	want := []int{9, 9, 9, 10}
	for i, w := range want {
		if sizes[i] != w {
			t.Fatalf("probe trajectory %v, want %v", sizes, want)
		}
	}
}
