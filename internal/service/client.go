package service

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"djinn/internal/trace"
)

// deadlineGrace is added to the connection I/O deadline beyond the
// context deadline: the server is authoritative for expiring a query
// (it answers StatusDeadline at the budget boundary), so the transport
// only times out when the server itself is wedged past the grace.
const deadlineGrace = time.Second

// Client is a DjiNN service client speaking the framed TCP protocol.
// It is safe for concurrent use; requests on one connection are
// serialised (open several clients for pipelining, as the Tonic load
// drivers do).
type Client struct {
	mu    sync.Mutex
	conn  net.Conn
	rw    *bufio.ReadWriter
	stale bool // a transport timeout desynced the stream
}

// DialFunc opens the transport to a DjiNN server. The router's
// connection pools inject custom dialers through it (short timeouts,
// test fakes, in-process pipes).
type DialFunc func(addr string) (net.Conn, error)

// DefaultDial is the DialFunc Dial uses: TCP with a 10s timeout.
func DefaultDial(addr string) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, 10*time.Second)
}

// Dial connects to a DjiNN server.
func Dial(addr string) (*Client, error) {
	return DialWith(addr, DefaultDial)
}

// DialWith connects using a custom dialer. Dial failures are wrapped in
// ErrTransport so routing layers can classify them as retryable on
// another replica.
func DialWith(addr string, dial DialFunc) (*Client, error) {
	if dial == nil {
		dial = DefaultDial
	}
	conn, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("%w: dialing %s: %w", ErrTransport, addr, err)
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		rw:   bufio.NewReadWriter(bufio.NewReader(conn), bufio.NewWriter(conn)),
	}
}

// Infer sends one query payload for app and returns the probability
// vectors the service computed.
func (c *Client) Infer(app string, in []float32) ([]float32, error) {
	return c.InferCtx(context.Background(), app, in)
}

// InferCtx sends one query bounded by ctx. The remaining budget rides
// the request frame, so the server expires the query at whichever
// lifecycle stage the deadline passes (queue, batch assembly, or the
// response wait) and answers with a distinct status the caller can
// test with errors.Is(err, ErrDeadlineExceeded). A trace ID attached
// to ctx (trace.WithID) rides the frame's optional trace header, so
// the server annotates its lifecycle spans under the caller's ID.
func (c *Client) InferCtx(ctx context.Context, app string, in []float32) ([]float32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.usable(ctx); err != nil {
		return nil, err
	}
	var budget time.Duration
	if dl, ok := ctx.Deadline(); ok {
		budget = time.Until(dl)
		if budget <= 0 {
			return nil, fmt.Errorf("%w: %v", ErrDeadlineExceeded, ctx.Err())
		}
		// The transport deadline backstops a wedged server; the grace
		// lets the server's own StatusDeadline answer arrive first.
		c.conn.SetDeadline(dl.Add(deadlineGrace))
		defer c.conn.SetDeadline(time.Time{})
	}
	var werr error
	if id := trace.IDFrom(ctx); id != "" && len(id) <= trace.MaxIDLen {
		werr = writeTracedRequest(c.rw, id, app, budget, in)
	} else {
		werr = writeRequest(c.rw, app, budget, in)
	}
	if werr != nil {
		return nil, c.fail(fmt.Errorf("service: sending request: %w", werr))
	}
	if err := c.rw.Flush(); err != nil {
		return nil, c.fail(fmt.Errorf("service: flushing request: %w", err))
	}
	status, msg, out, err := c.readReply()
	if err != nil {
		return nil, err
	}
	if status != StatusOK {
		return nil, errorFor(status, msg)
	}
	return out, nil
}

// usable rejects calls on a context that is already dead or a stream
// that a previous transport timeout left mid-frame.
func (c *Client) usable(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrDeadlineExceeded, err)
	}
	if c.stale {
		return fmt.Errorf("%w: connection desynced by an earlier timeout; dial a fresh client", ErrTransport)
	}
	return nil
}

// Stale reports whether an earlier transport failure desynced this
// client's stream. A stale client answers every call with ErrTransport;
// connection pools use this to discard it instead of recycling it.
func (c *Client) Stale() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stale
}

// readReply reads one response frame, poisoning the stream on
// transport errors (a timeout mid-frame leaves unread bytes that would
// corrupt every later exchange).
func (c *Client) readReply() (byte, string, []float32, error) {
	status, msg, out, err := readResponse(c.rw)
	if err != nil {
		return 0, "", nil, c.fail(fmt.Errorf("service: reading response: %w", err))
	}
	return status, msg, out, nil
}

// fail marks the stream unusable and wraps the error in ErrTransport:
// the failure is a property of this connection, not of the query, so
// callers holding other replicas may retry there.
func (c *Client) fail(err error) error {
	c.stale = true
	return fmt.Errorf("%w: %w", ErrTransport, err)
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Backend abstracts "something that can answer DjiNN queries": a TCP
// Client or an in-process Server. Tonic applications program against
// it.
type Backend interface {
	Infer(app string, in []float32) ([]float32, error)
}

// ContextBackend is a Backend that also accepts per-query contexts, the
// request-lifecycle entry point: deadlines propagate through enqueue,
// batch assembly, and the response wait. Both *Client and *Server
// implement it.
type ContextBackend interface {
	Backend
	InferCtx(ctx context.Context, app string, in []float32) ([]float32, error)
}

var (
	_ ContextBackend = (*Client)(nil)
	_ ContextBackend = (*Server)(nil)
)

// Control sends a control command ("apps", "stats <app>",
// "latency <app>") and returns the server's textual answer.
func (c *Client) Control(cmd string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stale {
		return "", fmt.Errorf("%w: connection desynced by an earlier timeout; dial a fresh client", ErrTransport)
	}
	if err := writeControl(c.rw, cmd); err != nil {
		return "", c.fail(fmt.Errorf("service: sending control: %w", err))
	}
	if err := c.rw.Flush(); err != nil {
		return "", c.fail(err)
	}
	status, msg, _, err := c.readReply()
	if err != nil {
		return "", err
	}
	if status != StatusOK {
		return "", fmt.Errorf("service: %s", msg)
	}
	return msg, nil
}

// Apps lists the applications registered on the server.
func (c *Client) Apps() ([]string, error) {
	answer, err := c.Control("apps")
	if err != nil {
		return nil, err
	}
	return strings.Fields(answer), nil
}

// ServerStats returns the textual counters of one application.
func (c *Client) ServerStats(app string) (string, error) {
	return c.Control("stats " + app)
}

// ServerLatency returns the textual per-stage lifecycle breakdown
// (queue wait / batch assembly / forward / respond) of one application.
func (c *Client) ServerLatency(app string) (string, error) {
	return c.Control("latency " + app)
}

// ServerSched returns one application's live scheduler state (batch
// cap, admission estimate and counters) as rendered by the "sched"
// control verb — "disabled" for an app registered without an SLO.
// sched.ParseInfo inverts the enabled form.
func (c *Client) ServerSched(app string) (string, error) {
	return c.Control("sched " + app)
}

// ServerPrecision returns the kernel precision one application's plan
// pool was compiled at ("float32" or "int8"), as rendered by the
// "precision" control verb.
func (c *Client) ServerPrecision(app string) (string, error) {
	return c.Control("precision " + app)
}

// ServerTrace returns the server's rendered span timeline for one
// trace ID — what the server recorded for a query sent with
// trace.WithID.
func (c *Client) ServerTrace(id string) (string, error) {
	return c.Control("trace " + id)
}

// ServerSlowestTraces returns the server's N worst recent traces as
// "id total spans" lines, slowest first.
func (c *Client) ServerSlowestTraces(n int) (string, error) {
	return c.Control("trace slowest " + strconv.Itoa(n))
}

// Models lists the server's registered model-store entries, one
// "id resident= pins= bytes= params=" line per model (or a "no models
// registered" sentinel).
func (c *Client) Models() (string, error) {
	return c.Control("model list")
}

// ModelStats returns the server's model-store counters — the textual
// form of the djinn_model_* gauges (resident count, bytes mapped,
// loads/faults/evictions).
func (c *Client) ModelStats() (string, error) {
	return c.Control("model stats")
}

// ModelRegister registers a weight file by path on the server's
// filesystem and returns the server's confirmation ("registered
// name@vN (...)").
func (c *Client) ModelRegister(path string) (string, error) {
	return c.Control("model register " + path)
}

// ModelLoad faults a model in ahead of traffic. The argument is a
// model name ("imc", newest version) or versioned ID ("imc@v2").
func (c *Client) ModelLoad(id string) (string, error) {
	return c.Control("model load " + id)
}

// ModelEvict unloads a model; the server refuses while queries are in
// flight.
func (c *Client) ModelEvict(id string) (string, error) {
	return c.Control("model evict " + id)
}
