package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
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
	tracer      *trace.Tracer

	mu     sync.Mutex
	conn   net.Conn
	rd     *bufio.Reader
	nextID int64
}

// ClientOption configures Dial.
type ClientOption func(*Client)

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
	if err := c.connect(); err != nil {
		return nil, err
	}
	return c, nil
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
// returned. The request is written at most once. A transport failure
// (refused dial, reset, lost response) comes back to the caller and drops
// the connection, so the next call redials; a request whose response was
// lost may have run, and only a later read can tell. A server-reported
// *OpError keeps the connection.
func (c *Client) Do(ctx context.Context, method string, params, result any, reqFrames ...[]byte) ([][]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		if err := c.connect(); err != nil {
			return nil, err
		}
	}
	respFrames, broken, err := c.roundTrip(ctx, method, params, result, reqFrames)
	if broken {
		c.conn.Close()
		c.conn = nil
	}
	return respFrames, err
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

// startCallSpan opens the client-side span for one call: a child
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
// response on the current connection. The bool reports a transport
// failure, after which Do drops the connection. Server-side failures
// come back as *OpError: the connection is still healthy and stays open.
// A desynced stream (response id mismatch, corrupt frame) poisons the
// connection so the next call redials.
func (c *Client) roundTrip(ctx context.Context, method string, params, result any, reqFrames [][]byte) ([][]byte, bool, error) {
	sp := c.startCallSpan(ctx, method)
	defer sp.End()
	c.nextID++
	req := Request{ID: c.nextID, Method: method, Frames: len(reqFrames), Trace: sp.Header()}
	if params != nil {
		raw, err := json.Marshal(params)
		if err != nil {
			return nil, false, err
		}
		req.Params = raw
	}
	buf, err := appendRequest(nil, &req, reqFrames)
	if err != nil {
		return nil, false, err
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
	resp, respFrames, broken, err := c.readResponse()
	if err == nil && resp.ID != req.ID {
		// The stream is desynced — whatever follows belongs to some other
		// exchange. Drop the connection so the next call starts clean.
		broken, err = true, fmt.Errorf("wire: response id %d for request %d", resp.ID, req.ID)
	}
	if err == nil {
		respFrames, err = settle(method, resp, respFrames, result)
	}
	if err != nil {
		sp.SetTag("err", err.Error())
	}
	return respFrames, broken, err
}

// appendRequest appends one request line and its binary frames to buf —
// the encoding Do and Pipeline.Flush share.
func appendRequest(buf []byte, req *Request, frames [][]byte) ([]byte, error) {
	line, err := json.Marshal(req)
	if err != nil {
		return buf, err
	}
	if buf == nil {
		buf = line // a lone request keeps the marshal buffer
	} else {
		buf = append(buf, line...)
	}
	buf = append(buf, '\n')
	for _, f := range frames {
		buf = AppendFrame(buf, f)
	}
	return buf, nil
}

// settle turns a matched response into the call's outcome: the server's
// error as an *OpError, else the response frames with the result decoded
// into result (nil discards it).
func settle(method string, resp Response, frames [][]byte, result any) ([][]byte, error) {
	if resp.Error != "" {
		return nil, &OpError{Method: method, Msg: resp.Error}
	}
	if result != nil {
		if err := json.Unmarshal(resp.Result, result); err != nil {
			return nil, err
		}
	}
	return frames, nil
}

// readResponse reads one response line plus its announced binary frames.
// The bool classifies a failure as transport-level (the connection is
// dropped) versus protocol-level.
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
			// Frame stream is unrecoverable mid-message; drop the connection.
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
