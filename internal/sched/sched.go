// Package sched is the SLO-aware decision tier between the DjiNN
// protocol front-end and the NN runners. The paper picks one fixed
// batch size and flush window per application at registration time;
// the serving path sizes each batch by load instead, and this package
// puts a feedback loop on what is left to choose:
//
//   - Each application declares an SLO — a target p99 latency — and a
//     tenant priority class (Config).
//   - An admission controller (Controller.Admit) estimates the queue
//     delay a new query would see from the live service-time EWMA and
//     the instances already admitted, and rejects queries that cannot
//     meet their budget *before* they occupy queue capacity, instead
//     of letting them rot until batch assembly notices the corpse.
//   - An adaptive batch controller (AIMD) resizes the batch cap within
//     [1, MaxBatch] to hold observed p99 at the SLO while maximizing
//     instances per second. The serving path batches work-conservingly — a free
//     worker takes whatever is pending — so the cap only binds while
//     every worker is busy.
//   - A weighted priority gate (Gate) orders pending batch executions
//     across applications so latency-critical tenants preempt
//     throughput tenants when execution slots are contended.
//
// Everything here is deliberately free of service-package types so the
// controllers are testable as pure state machines.
package sched

import (
	"fmt"
	"strings"
)

// Priority is an application's tenant class. It orders batch
// executions across applications at the Gate and is reported by the
// "sched" control verb.
type Priority int

const (
	// Throughput is bulk work: it fills whatever capacity the
	// latency-critical tenants leave (e.g. offline IMC backfill).
	Throughput Priority = iota
	// Standard is the default interactive class.
	Standard
	// LatencyCritical tenants (e.g. ASR) preempt the other classes
	// whenever execution slots are contended.
	LatencyCritical

	numPriorities
)

// Weight is the class's share in the gate's weighted round-robin:
// when every class has pending batches, grants interleave 4:2:1
// (latency-critical : standard : throughput), so low classes are
// deprioritised but never starved.
func (p Priority) Weight() int {
	switch p {
	case LatencyCritical:
		return 4
	case Standard:
		return 2
	}
	return 1
}

// String names the class as the control verb reports it.
func (p Priority) String() string {
	switch p {
	case Throughput:
		return "throughput"
	case Standard:
		return "standard"
	case LatencyCritical:
		return "latency"
	}
	return fmt.Sprintf("priority(%d)", int(p))
}

// ParsePriority converts a class name ("throughput", "standard",
// "latency") back to a Priority.
func ParsePriority(s string) (Priority, error) {
	switch strings.ToLower(s) {
	case "throughput":
		return Throughput, nil
	case "standard":
		return Standard, nil
	case "latency":
		return LatencyCritical, nil
	}
	return 0, fmt.Errorf("sched: unknown priority %q", s)
}
