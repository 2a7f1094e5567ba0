package sched

import "time"

// AIMDConfig tunes the adaptive batch controller.
type AIMDConfig struct {
	// Max bounds the batch size in instances (the floor is 1). It is
	// typically the runner's MaxBatch.
	Max int
	// SLO is the target p99 latency the controller holds.
	SLO time.Duration
	// Headroom is the dead band's lower edge as a fraction of the SLO:
	// the batch grows only while p99 < Headroom×SLO, holds inside
	// [Headroom×SLO, SLO], and shrinks past the SLO. The band is what
	// keeps the controller from oscillating around equilibrium.
	// Zero means 0.8.
	Headroom float64
	// Backoff is the multiplicative decrease applied when p99 exceeds
	// the SLO. Zero means 0.5.
	Backoff float64
	// ProbeAfter is how many consecutive under-headroom observations at
	// the post-overload ceiling earn one probe step past it. Zero
	// means 8.
	ProbeAfter int
}

func (c AIMDConfig) withDefaults() AIMDConfig {
	if c.Max < 1 {
		c.Max = 1
	}
	if c.Headroom <= 0 || c.Headroom >= 1 {
		c.Headroom = 0.8
	}
	if c.Backoff <= 0 || c.Backoff >= 1 {
		c.Backoff = 0.5
	}
	if c.ProbeAfter <= 0 {
		c.ProbeAfter = 8
	}
	return c
}

// AIMD is the adaptive batch controller: additive-increase /
// multiplicative-decrease over the batch cap — the size a batch may
// grow to while every worker is busy — driven by observed p99 latency
// against the SLO. It is a pure state machine —
// no clocks, no goroutines — so its convergence behaviour is testable
// with synthetic latency sequences.
//
// A TCP-style ceiling keeps it from sawtoothing: an overload at size s
// remembers s-1 as the ceiling, the additive increase stops there, and
// only ProbeAfter consecutive healthy observations earn one probe step
// past it. At equilibrium the size therefore varies by at most one
// step per ProbeAfter observations.
type AIMD struct {
	cfg        AIMDConfig
	size       int
	ceiling    int // 0 = none; else the last known-bad size minus one
	healthyRun int // consecutive under-headroom observations
}

// NewAIMD creates a controller starting at a batch cap of 1
// (conservative: it ramps up while the SLO has headroom).
func NewAIMD(cfg AIMDConfig) *AIMD {
	return &AIMD{cfg: cfg.withDefaults(), size: 1}
}

// Batch returns the current batch cap in instances.
func (a *AIMD) Batch() int { return a.size }

// Observe feeds one p99 measurement and advances the controller.
// pressured reports that admission rejected queries since the last
// observation: shedding while the served p99 still holds means the
// system is capacity-limited at this batch size, and growing — even
// past the ceiling — is the only way to buy throughput. Without the
// signal the two controllers deadlock: admission keeps the queue at
// exactly Safety×SLO of delay, which is the grow band's upper edge,
// so a cold-start overload that floored the batch would pin it there
// while admission sheds the load growth could have served.
func (a *AIMD) Observe(p99 time.Duration, pressured bool) {
	cfg := a.cfg
	if p99 > cfg.SLO {
		// Overload: remember where it hurt, back off multiplicatively.
		a.ceiling = max(a.size-1, 1)
		a.size = max(int(float64(a.size)*cfg.Backoff), 1)
		a.healthyRun = 0
		return
	}
	if pressured {
		// Capacity-limited, not latency-limited: probe upward. Lifting
		// the ceiling is deliberate — it was set by queue delay at a
		// smaller size, not by this size's service time, and the next
		// genuine SLO breach re-arms it.
		if a.size < cfg.Max {
			a.size++
			if a.ceiling > 0 && a.ceiling < a.size {
				a.ceiling = a.size
			}
		}
		a.healthyRun = 0
		return
	}
	if float64(p99) >= cfg.Headroom*float64(cfg.SLO) {
		// Dead band: near the SLO but not over it. Hold.
		a.healthyRun = 0
		return
	}
	// Clear headroom: grow additively toward the ceiling (or Max).
	limit := cfg.Max
	if a.ceiling > 0 && a.ceiling < limit {
		limit = a.ceiling
	}
	switch {
	case a.size < limit:
		a.size++
		a.healthyRun = 0
	case a.ceiling > 0 && a.ceiling < cfg.Max:
		// At the post-overload ceiling: a sustained healthy run here
		// earns one cautious probe past the last failure point.
		a.healthyRun++
		if a.healthyRun >= cfg.ProbeAfter {
			a.ceiling++
			a.size = a.ceiling
			a.healthyRun = 0
		}
	}
}
