package service

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Sentinel errors for the request lifecycle. Both the in-process path
// and the TCP client surface these (the wire carries them as dedicated
// status codes), so callers can distinguish an expired deadline, a
// draining server, and shed load from genuine failures with errors.Is.
var (
	// ErrDeadlineExceeded reports that a query's context expired before
	// the service produced its result.
	ErrDeadlineExceeded = errors.New("service: deadline exceeded")
	// ErrShuttingDown reports that the server is draining and no longer
	// accepts queries.
	ErrShuttingDown = errors.New("service: server shutting down")
	// ErrOverloaded reports that the query was shed because the
	// application's pending queue was full.
	ErrOverloaded = errors.New("service: overloaded")
	// ErrTransport reports that the connection to the server failed
	// (dial error, broken or desynced stream) rather than the server
	// answering an error status. The query may never have reached the
	// server, or its answer may have been lost in flight.
	ErrTransport = errors.New("service: transport failure")
)

// Retryable reports whether a failed query may safely be reissued on
// another replica: the backend shed it (ErrOverloaded), is draining
// (ErrShuttingDown), or the transport broke (ErrTransport). Inference
// is idempotent, so retrying a query whose answer was lost in flight
// is safe. Deadline expiry is terminal — the budget belongs to the
// query, not the backend — and server-answered application errors
// (unknown app, malformed payload) are deterministic, so retrying
// them elsewhere would only repeat the failure.
func Retryable(err error) bool {
	return errors.Is(err, ErrOverloaded) ||
		errors.Is(err, ErrShuttingDown) ||
		errors.Is(err, ErrTransport)
}

// statusFor maps a dispatch error onto its wire status code.
func statusFor(err error) byte {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, ErrDeadlineExceeded):
		return StatusDeadline
	case errors.Is(err, ErrShuttingDown):
		return StatusShutdown
	case errors.Is(err, ErrOverloaded):
		return StatusOverload
	}
	return StatusError
}

// errorFor reconstructs the sentinel-wrapped error for a non-OK wire
// status on the client side.
func errorFor(status byte, msg string) error {
	switch status {
	case StatusDeadline:
		return fmt.Errorf("%w: %s", ErrDeadlineExceeded, msg)
	case StatusShutdown:
		return fmt.Errorf("%w: %s", ErrShuttingDown, msg)
	case StatusOverload:
		return fmt.Errorf("%w: %s", ErrOverloaded, msg)
	}
	return fmt.Errorf("service: server error: %s", msg)
}

// request is the first-class request object threaded through the whole
// serving path: the caller's context, the query payload, and the
// timestamps that delimit its wait (enqueue → dequeue by the
// aggregator); the batch-wide ones — hand-off to a worker, forward
// pass, response — are runBatch's locals.
type request struct {
	ctx       context.Context
	in        []float32
	instances int
	traceID   string // non-empty when the query carries a trace ID

	enqueued time.Time // dispatch put it on the app queue
	dequeued time.Time // aggregator picked it up

	resp      chan result
	responded atomic.Bool
}

type result struct {
	out []float32
	err error
}

// claim wins the right to deliver the request's single response.
// Exactly one claimant wins: the worker with a result, the aggregator
// with an expiry/drain error, or the dispatcher abandoning the wait —
// every other caller sees false and must not touch the request further.
// This is the invariant that makes dispatch hang-proof. The winner
// books the outcome (counters, spans) and then calls deliver, in that
// order, so whoever receives the response finds it already accounted.
func (r *request) claim() bool { return r.responded.CompareAndSwap(false, true) }

// deliver hands a claimed request's response to its caller.
func (r *request) deliver(res result) { r.resp <- res }

// expired reports whether the request's context has been cancelled.
func (r *request) expired() bool {
	return r.ctx != nil && r.ctx.Err() != nil
}

// ctxExpiry reports why a query's context is already dead on arrival,
// or nil: it was cancelled, or its deadline has passed though its timer
// has not fired yet (a busy host runs timers late). The second case
// must count as an expiry too: admission would answer the non-positive
// budget with a retryable ErrOverloaded, and the router would carry a
// dead query to another replica.
func ctxExpiry(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}
