package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"p4runpro/internal/obs/trace"
)

// Client is a connection to a control-protocol server. Every verb goes
// through Do, typed with Call; the few named methods left are the calls
// the benchmark harness makes.
type Client struct {
	addr        string
	dialTimeout time.Duration
	callTimeout time.Duration
	retry       RetryPolicy
	tracer      *trace.Tracer

	mu     sync.Mutex
	conn   net.Conn
	rd     *bufio.Reader
	nextID int64
}

// RetryPolicy governs opt-in reconnect-and-retry of transport failures:
// Attempts total tries per operation with exponential backoff from Base,
// capped at Max, each sleep jittered ±25%. The zero value disables
// retries.
type RetryPolicy struct {
	Attempts int
	Base     time.Duration
	Max      time.Duration
}

func (p RetryPolicy) enabled() bool { return p.Attempts > 1 }

// backoff returns the jittered sleep before try i (1-based; try 1 never
// sleeps).
func (p RetryPolicy) backoff(i int) time.Duration {
	if i <= 1 {
		return 0
	}
	d := p.Base << uint(i-2)
	if max := p.Max; max > 0 && d > max {
		d = max
	}
	if d <= 0 {
		return 0
	}
	jitter := 0.75 + 0.5*rand.Float64()
	return time.Duration(float64(d) * jitter)
}

// ClientOption configures Dial.
type ClientOption func(*Client)

// WithRetry enables reconnect-and-retry for transient connection errors
// (refused dials, resets, broken pipes), with exponential backoff plus
// jitter between tries. Default base/max are 50ms/2s when zero. Retries
// cover the initial dial and any call whose transport fails — a call that
// reached the server may re-execute, so enable this only for idempotent
// or monitoring traffic (the fleet health checker's use). Server-reported
// errors are never retried.
func WithRetry(attempts int, base time.Duration) ClientOption {
	return func(c *Client) {
		if base <= 0 {
			base = 50 * time.Millisecond
		}
		c.retry = RetryPolicy{Attempts: attempts, Base: base, Max: 2 * time.Second}
	}
}

// WithCallTimeout bounds each RPC round trip: the connection deadline is
// armed before the request is written and cleared after the response is
// read, so a hung server cannot block the caller forever.
func WithCallTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.callTimeout = d }
}

// WithDialTimeout overrides the 5s connect timeout.
func WithDialTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.dialTimeout = d }
}

// WithTracer records a client-side span per call into tr and stamps the
// span context into each request's "tr" field, so client and server halves
// stitch into one distributed trace. Calls whose context already carries a
// span join that trace instead of starting fresh roots.
func WithTracer(tr *trace.Tracer) ClientOption {
	return func(c *Client) { c.tracer = tr }
}

// Dial connects to a daemon.
func Dial(addr string, opts ...ClientOption) (*Client, error) {
	c := &Client{addr: addr, dialTimeout: 5 * time.Second}
	for _, o := range opts {
		o(c)
	}
	attempts := 1
	if c.retry.enabled() {
		attempts = c.retry.Attempts
	}
	var err error
	for i := 1; i <= attempts; i++ {
		time.Sleep(c.retry.backoff(i))
		if err = c.connect(); err == nil {
			return c, nil
		}
	}
	return nil, err
}

// connect (re)establishes the TCP session. Caller must not hold c.mu when
// calling from Dial; Do invokes it with the lock held.
func (c *Client) connect() error {
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTimeout)
	if err != nil {
		return err
	}
	c.conn = conn
	c.rd = bufio.NewReaderSize(conn, 1<<20)
	return nil
}

// Close closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// Do performs one RPC round trip — the single entry every verb goes
// through. ctx carries the caller's trace, if any; params (nil for none)
// is marshalled into the request and the response's result unmarshalled
// into result (nil to discard it); reqFrames travel as binary frames
// behind the request line, and the frames the response carried are
// returned. Transport failures reconnect and retry when a retry policy is
// set; a server-reported *OpError never does.
func (c *Client) Do(ctx context.Context, method string, params, result any, reqFrames ...[]byte) ([][]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	attempts := 1
	if c.retry.enabled() {
		attempts = c.retry.Attempts
	}
	var err error
	for i := 1; i <= attempts; i++ {
		time.Sleep(c.retry.backoff(i))
		if c.conn == nil {
			if err = c.connect(); err != nil {
				continue
			}
		}
		var retryable bool
		var respFrames [][]byte
		respFrames, retryable, err = c.roundTrip(ctx, method, params, result, reqFrames)
		if err == nil {
			return respFrames, nil
		}
		if !retryable {
			return nil, err
		}
		c.conn.Close()
		c.conn = nil
	}
	return nil, err
}

// Doer is one round trip through the verb table: *Client over TCP, or
// *Server in-process (a server that was never told to Listen).
type Doer interface {
	Do(ctx context.Context, method string, params, result any, frames ...[]byte) ([][]byte, error)
}

// Call is Do for a verb answering with one typed result and no frames —
// the shape of nearly every verb.
func Call[R any](ctx context.Context, c Doer, method string, params any) (R, error) {
	var out R
	_, err := c.Do(ctx, method, params, &out)
	return out, err
}

// startCallSpan opens the client-side span for one call attempt: a child
// of ctx's span when one is present (fan-out from a traced server), else a
// fresh root from the client's own tracer, else the nop span.
func (c *Client) startCallSpan(ctx context.Context, method string) *trace.Span {
	if sp := trace.SpanFromContext(ctx); sp.Enabled() {
		return sp.Child("cli." + method)
	}
	if c.tracer.Enabled() {
		_, sp := c.tracer.Start(ctx, "cli."+method)
		return sp
	}
	return trace.Nop()
}

// roundTrip writes one request (plus any binary frames) and reads its
// response on the current connection. The bool reports whether the
// failure was a transport error worth a reconnect. Server-side failures
// come back as *OpError: the connection is still healthy and stays open.
// A desynced stream (response id mismatch, corrupt frame) poisons the
// connection so the next call redials.
func (c *Client) roundTrip(ctx context.Context, method string, params, result any, reqFrames [][]byte) ([][]byte, bool, error) {
	sp := c.startCallSpan(ctx, method)
	defer sp.End()
	c.nextID++
	req := Request{ID: c.nextID, Method: method, Frames: len(reqFrames), Trace: sp.Header()}
	if req.Trace == "" {
		req.Trace = trace.HeaderFromContext(ctx)
	}
	if params != nil {
		raw, err := json.Marshal(params)
		if err != nil {
			return nil, false, err
		}
		req.Params = raw
	}
	buf, err := json.Marshal(&req)
	if err != nil {
		return nil, false, err
	}
	buf = append(buf, '\n')
	for _, f := range reqFrames {
		buf = AppendFrameT(buf, f, sp.Context())
	}
	if c.callTimeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.callTimeout)); err != nil {
			return nil, true, err
		}
		defer c.conn.SetDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	}
	wstart := time.Now()
	if _, err := c.conn.Write(buf); err != nil {
		sp.SetTag("err", err.Error())
		return nil, true, err
	}
	sp.ChildAt("wire.flush", wstart, time.Since(wstart))
	resp, respFrames, retryable, err := c.readResponse()
	if err != nil {
		sp.SetTag("err", err.Error())
		return nil, retryable, err
	}
	if resp.ID != req.ID {
		// The stream is desynced — whatever follows belongs to some other
		// exchange. Drop the connection so the next call starts clean.
		c.conn.Close()
		c.conn = nil
		sp.SetTag("err", "response id mismatch")
		return nil, false, fmt.Errorf("wire: response id %d for request %d", resp.ID, req.ID)
	}
	if resp.Error != "" {
		sp.SetTag("err", resp.Error)
		return nil, false, &OpError{Method: method, Msg: resp.Error}
	}
	if result != nil {
		if err := json.Unmarshal(resp.Result, result); err != nil {
			return nil, false, err
		}
	}
	return respFrames, false, nil
}

// readResponse reads one response line plus its announced binary frames.
// The bool classifies a failure as transport-level (retryable after a
// reconnect) versus protocol-level.
func (c *Client) readResponse() (Response, [][]byte, bool, error) {
	respLine, err := c.rd.ReadBytes('\n')
	if err != nil {
		return Response{}, nil, true, err
	}
	var resp Response
	if err := json.Unmarshal(respLine, &resp); err != nil {
		return Response{}, nil, false, err
	}
	if resp.Frames < 0 || resp.Frames > MaxFramesPerMessage {
		return Response{}, nil, false, fmt.Errorf("%w: %d", ErrBadFrameCount, resp.Frames)
	}
	var frames [][]byte
	for i := 0; i < resp.Frames; i++ {
		f, err := ReadFrame(c.rd, DefaultMaxFrameBytes)
		if err != nil {
			// Frame stream is unrecoverable mid-message; reconnect.
			return Response{}, nil, true, err
		}
		frames = append(frames, f)
	}
	return resp, frames, false, nil
}

// Deploy links P4runpro source on the remote switch.
func (c *Client) Deploy(source string) ([]DeployResult, error) {
	return Call[[]DeployResult](context.Background(), c, MethodDeploy, DeployParams{Source: source})
}

// Revoke unlinks a remote program.
func (c *Client) Revoke(name string) (RevokeResult, error) {
	return Call[RevokeResult](context.Background(), c, MethodRevoke, RevokeParams{Name: name})
}

// Status fetches the controller status line.
func (c *Client) Status() (string, error) {
	return Call[string](context.Background(), c, MethodStatus, nil)
}
