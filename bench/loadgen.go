package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"djinn/internal/pipeline"
	"djinn/internal/service"
)

// sample is one query's life as the load generator saw it; times are
// offsets from the start of the measured window. In a closed loop a
// query is due, and released, when its client sends it.
type sample struct {
	kind     string
	step     int
	due      time.Duration // when the schedule wanted it sent
	ready    time.Duration // when it could first go: due, or when a connection came free
	released time.Duration // when its connection began to send it
	done     time.Duration
	err      bool // no reply: transport error, shed, expiry, non-200
	wrong    bool // a reply that differs from the oracle's
	cached   bool
	bytes    int // request + response body bytes (HTTP)
	trace    string
}

// latency is timed from the due time, so a stall's cost to the
// requests queued behind it is counted.
func (s sample) latency() time.Duration { return s.done - s.due }

// lag is how late the generator itself ran: how long the query sat
// after it was due and a connection was free to take it.
func (s sample) lag() time.Duration { return s.released - s.ready }

func (s sample) ok() bool { return !s.err && !s.wrong }

// reply is what a client learned from one query.
type reply struct {
	got    string
	cached bool
	trace  string
	bytes  int
}

// client sends queries over one connection, one at a time. id names
// the query in the traced pass's spans.
type client interface {
	do(q *query, id string) (reply, error)
	close()
}

// djrtClient is one Tonic application set over its own DJRT
// connection. With a recorder it spans every app call and every
// backend call beneath it.
type djrtClient struct {
	conn *service.Client
	apps *tonicApps
	wrap *spanBackendWrapper // nil untraced
}

func newDJRTClient(addr string, rec *recorder) (*djrtClient, error) {
	conn, err := service.Dial(addr)
	if err != nil {
		return nil, err
	}
	c := &djrtClient{conn: conn}
	if rec != nil {
		c.wrap = &spanBackendWrapper{next: conn, rec: rec, name: spanDJRT}
		c.apps = newTonicApps(c.wrap)
	} else {
		c.apps = newTonicApps(conn)
	}
	return c, nil
}

func (c *djrtClient) do(q *query, id string) (reply, error) {
	if c.wrap == nil {
		got, err := c.apps.run(q)
		return reply{got: got}, err
	}
	c.wrap.query = id
	t0 := time.Now()
	got, err := c.apps.run(q)
	c.wrap.rec.record(id, spanTonic, "", t0, time.Now())
	return reply{got: got, trace: id}, err
}

func (c *djrtClient) close() { c.conn.Close() }

// httpClient posts pre-encoded JSON bodies to the gateway over one
// keep-alive HTTP/1.1 connection.
type httpClient struct {
	hc  *http.Client
	url string
	rec *recorder // nil untraced
}

func newHTTPClient(url string, rec *recorder) *httpClient {
	return &httpClient{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
		url: url, rec: rec,
	}
}

func (c *httpClient) do(q *query, _ string) (reply, error) {
	path := "/v1/infer"
	if q.kind == kindPipe {
		path = "/v1/pipeline"
	}
	t0 := time.Now()
	resp, err := c.hc.Post(c.url+path, "application/json", bytes.NewReader(q.body))
	if err != nil {
		return reply{}, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	r := reply{bytes: len(q.body) + len(raw)}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	if q.kind == kindPipe {
		var res pipeline.Result
		if err := json.Unmarshal(raw, &res); err != nil {
			return r, err
		}
		r.trace = res.TraceID
		r.got = pipeReply(&res)
	} else {
		var res struct {
			Cached  bool           `json:"cached"`
			TraceID string         `json:"trace_id"`
			Result  pipeline.Value `json:"result"`
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			return r, err
		}
		r.trace, r.cached = res.TraceID, res.Cached
		r.got = valueTags(res.Result)
	}
	if c.rec != nil {
		c.rec.record(r.trace, spanHTTP, "", t0, time.Now())
	}
	return r, nil
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

func valueTags(v pipeline.Value) string {
	var b bytes.Buffer
	for i, w := range v.Words {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(w.Tag)
	}
	return b.String()
}

// pipeReply renders an asr-pos-ner result the way tonicApps.run does.
func pipeReply(res *pipeline.Result) string {
	byName := map[string]pipeline.Value{}
	for _, st := range res.Stages {
		byName[st.Name] = st.Output
	}
	return byName["asr"].Text + "|" + valueTags(byName["pos"]) + "|" + valueTags(byName["ner"])
}

// issue sends one query and fills in the sample's outcome.
func issue(c client, q *query, id string, s *sample, since func() time.Duration) {
	s.kind = q.kind
	r, err := c.do(q, id)
	s.done = since()
	s.cached, s.bytes, s.trace = r.cached, r.bytes, r.trace
	switch {
	case err != nil:
		s.err = true
	case q.want != "" && r.got != q.want:
		s.wrong = true
	}
}

// warmUp sends each client's fixed warm-up; any failure fails set-up.
func warmUp(clients []client, warm [][]*query) error {
	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c client) {
			defer wg.Done()
			for n, q := range warm[i] {
				r, err := c.do(q, "warm"+strconv.Itoa(i)+"-"+strconv.Itoa(n))
				if err == nil && q.want != "" && r.got != q.want {
					err = fmt.Errorf("reply %q, reference %q", r.got, q.want)
				}
				if err != nil {
					errs[i] = fmt.Errorf("warm-up %s: %w", q.kind, err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runClosed drives each client through its fixed cycle for the window:
// the next query is sent when the previous reply arrives. Only queries
// that finish inside the window are samples.
func runClosed(clients []client, cycles [][]*query, window time.Duration, tag string) []sample {
	per := make([][]sample, len(clients))
	start := time.Now()
	since := func() time.Duration { return time.Since(start) }
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c client) {
			defer wg.Done()
			for n := 0; since() < window; n++ {
				now := since()
				s := sample{due: now, ready: now, released: now}
				id := tag + strconv.Itoa(i) + "-" + strconv.Itoa(n)
				issue(c, cycles[i][n%len(cycles[i])], id, &s, since)
				if s.done <= window {
					per[i] = append(per[i], s)
				}
			}
		}(i, c)
	}
	wg.Wait()
	var all []sample
	for _, p := range per {
		all = append(all, p...)
	}
	return all
}

// clock is the open loop's view of time, so its due/ready/released
// arithmetic can be checked on a fake.
type clock interface {
	since() time.Duration
	waitUntil(t time.Duration)
}

type wallClock struct{ start time.Time }

func (c wallClock) since() time.Duration { return time.Since(c.start) }

// waitUntil naps until t and wakes on time. time.Sleep does not, on
// this sandbox: an idle P parks in epoll_wait, whose timeout counts
// whole milliseconds (0.6 ms late at the median), and a thread that
// wakes on a core another thread is using waits out that thread's
// scheduler slice (1-3 ms late at p99). nanosleep(2) is exact to 0.1 ms,
// and for the length of the nap the goroutine's thread asks for the
// shortest slice, which lets its wake-up preempt. The thread is the
// goroutine's only for the nap and has the default slice again before it
// runs anything else.
func (c wallClock) waitUntil(t time.Duration) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if setSchedSlice(minSchedSlice) {
		defer setSchedSlice(0)
	}
	for {
		d := t - time.Since(c.start)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		// EINTR (the runtime's preemption signal) only shortens one nap.
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// minSchedSlice is the shortest slice Linux grants a thread that asks.
const minSchedSlice = 100 * time.Microsecond

// sched_setattr(2) is missing from package syscall's table.
var sysSchedSetattr = map[string]uintptr{"amd64": 314, "arm64": 274}[runtime.GOARCH]

// setSchedSlice asks the scheduler (Linux 6.12 and later) to give the
// calling thread slices of the given length, 0 for the default, and
// reports whether the kernel agreed. A refusal leaves the thread as it
// was: waits are then less punctual, which the run's lag_p99 shows.
func setSchedSlice(slice time.Duration) bool {
	if sysSchedSetattr == 0 {
		return false
	}
	// struct sched_attr, the 48 bytes of its first version; policy 0 is
	// SCHED_OTHER.
	attr := struct {
		size, policy                    uint32
		flags                           uint64
		nice                            int32
		priority                        uint32
		runtimeNs, deadlineNs, periodNs uint64
	}{size: 48, runtimeNs: uint64(slice)}
	_, _, errno := syscall.Syscall(sysSchedSetattr, 0, uintptr(unsafe.Pointer(&attr)), 0)
	return errno == 0
}

// head is the front of the open loop's queue: the precomputed schedule
// and how much of it has been taken. Holding mu is the right to take the
// next arrival and wait for its due time, so one connection waits at a
// time. (A goroutine in nanosleep keeps its P until the runtime's
// monitor thread takes it away, which can take milliseconds; this way
// the generator pins one P at most, not one per connection.)
type head struct {
	mu       sync.Mutex
	schedule []arrival
	next     int
}

// drain is one connection's side of the open loop. A connection that
// comes free takes the next arrival, waits until it is due if it is
// early, and sends it. A slow server therefore makes queries wait for a
// connection (counted in latency, which runs from the due time), and
// only the generator's own lateness, sending after the query was due
// and the connection free, is lag. Arrivals still due when the window
// closes are not sent.
func (h *head) drain(clk clock, window time.Duration, send func(a arrival, ready, released time.Duration)) {
	for {
		ready := clk.since() // the connection is free from here on
		h.mu.Lock()
		if h.next == len(h.schedule) {
			h.mu.Unlock()
			return
		}
		a := h.schedule[h.next]
		h.next++
		if ready < a.due {
			clk.waitUntil(a.due)
			ready = a.due
		}
		released := clk.since()
		h.mu.Unlock()
		if released >= window {
			return
		}
		send(a, ready, released)
	}
}

// runOpen sends the schedule over the clients' connections. The
// in-flight queries at the window's end complete; the arrivals behind
// them are dropped (scheduled, never sent: a miss of every limit, but
// not a failure of the program).
func runOpen(clients []client, schedule []arrival, window time.Duration) []sample {
	clk := wallClock{start: time.Now()}
	h := &head{schedule: schedule}
	per := make([][]sample, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c client) {
			defer wg.Done()
			h.drain(clk, window, func(a arrival, ready, released time.Duration) {
				s := sample{step: a.step, due: a.due, ready: ready, released: released}
				issue(c, a.q, "", &s, clk.since)
				per[i] = append(per[i], s)
			})
		}(i, c)
	}
	wg.Wait()
	var samples []sample
	for i := range per {
		samples = append(samples, per[i]...)
	}
	return samples
}
