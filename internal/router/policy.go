package router

import (
	"fmt"
	"strings"
)

// Policy selects which available replica serves the next query. The
// same three policies drive both the live router and the cluster
// simulation's GPU-tier dispatch, so measured and simulated routing
// can be compared directly.
type Policy int

const (
	// RoundRobin cycles through the available replicas in order:
	// oblivious to load, cheapest to compute, and the baseline the
	// paper's front-end load balancer implies.
	RoundRobin Policy = iota
	// LeastOutstanding routes to the replica with the fewest in-flight
	// queries — a global view that tracks heterogeneous replica speed
	// but costs a scan per query.
	LeastOutstanding
	// PowerOfTwo samples two random replicas and routes to the less
	// loaded: near-least-outstanding tail behaviour at O(1) cost
	// (Mitzenmacher's "power of two choices").
	PowerOfTwo
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case LeastOutstanding:
		return "least-outstanding"
	case PowerOfTwo:
		return "power-of-two"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy converts a policy name (as printed by String, or the
// short forms "rr", "least", "p2c") to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "round-robin", "roundrobin", "rr":
		return RoundRobin, nil
	case "least-outstanding", "least", "lo":
		return LeastOutstanding, nil
	case "power-of-two", "p2c", "two":
		return PowerOfTwo, nil
	}
	return 0, fmt.Errorf("router: unknown policy %q", s)
}
