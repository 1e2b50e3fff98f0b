// Request pipelining and the bulk-verb client surface. A Pipeline queues
// many requests locally, writes them all in one burst, and then reads the
// responses back in order — N operations cost one round trip plus the
// server's processing time instead of N round trips. The server already
// processes each connection's requests strictly in order, so responses
// come back id-matched in request order; an out-of-order id means the
// stream is desynced and kills the connection.
//
// Error discipline inside a pipeline: a server-reported failure of one
// operation surfaces on that operation's PendingCall as an *OpError and
// does not disturb the others — the connection stays healthy. Only a
// transport-level failure (write error, read error, desync) fails Flush
// itself, poisons the connection, and marks every unanswered call failed.
package wire

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"p4runpro/internal/faults"
	"p4runpro/internal/obs/trace"
)

// fpPipelineFlush lets chaos tests fail a pipeline flush before any byte
// is written: the batch must fail atomically (no request reaches the
// server) and the connection must remain usable after disarming.
var fpPipelineFlush = faults.Register("wire.pipeline.flush")

// PendingCall is one queued operation of a Pipeline. Its outcome is
// undefined until Flush returns.
type PendingCall struct {
	// Method is the queued verb (for error reporting).
	Method string

	params json.RawMessage
	frames [][]byte
	result any
	ctx    context.Context

	id   int64
	err  error
	resp [][]byte
	sp   *trace.Span
}

// Err returns the operation's outcome after Flush: nil, an *OpError the
// server reported for this operation, or the transport error that killed
// the batch.
func (pc *PendingCall) Err() error { return pc.err }

// RespFrames returns the binary frames the server attached to this
// operation's response (bulk reads).
func (pc *PendingCall) RespFrames() [][]byte { return pc.resp }

// Pipeline batches requests on one client connection. Queue operations
// with Call/Enqueue, then Flush once; the pipeline is empty and
// reusable afterwards. A Pipeline is not safe for concurrent use (use
// one per goroutine — the underlying Client serializes flushes).
type Pipeline struct {
	c      *Client
	calls  []*PendingCall
	encErr error
}

// Pipeline starts an empty request pipeline on c.
func (c *Client) Pipeline() *Pipeline { return &Pipeline{c: c} }

// Len reports how many operations are queued.
func (p *Pipeline) Len() int { return len(p.calls) }

// Call queues one operation. params is marshalled immediately; result,
// when non-nil, is unmarshalled from the response during Flush. The
// returned PendingCall carries the operation's outcome after Flush.
func (p *Pipeline) Call(method string, params, result any) *PendingCall {
	return p.Enqueue(context.Background(), method, params, result, nil)
}

// Enqueue is Call with trailing binary request frames, under the trace
// carried by ctx: the operation gets its own span, ended when its
// (possibly much later) pipelined response is matched — so each response
// attaches to the right span even though many operations are in flight at
// once.
func (p *Pipeline) Enqueue(ctx context.Context, method string, params, result any, frames [][]byte) *PendingCall {
	pc := &PendingCall{Method: method, frames: frames, result: result, ctx: ctx}
	if params != nil {
		raw, err := json.Marshal(params)
		if err != nil {
			pc.err = err
			if p.encErr == nil {
				p.encErr = fmt.Errorf("wire: marshal %s params: %w", method, err)
			}
		} else {
			pc.params = raw
		}
	}
	p.calls = append(p.calls, pc)
	return pc
}

// Flush writes every queued request in one burst and reads the responses
// back in order. It returns the first connection-level error (nil when
// the batch was exchanged, even if individual operations failed — check
// each PendingCall.Err). The pipeline is reset either way.
func (p *Pipeline) Flush() error {
	calls := p.calls
	p.calls = nil
	if p.encErr != nil {
		err := p.encErr
		p.encErr = nil
		for _, pc := range calls {
			if pc.err == nil {
				pc.err = err
			}
		}
		return err
	}
	if len(calls) == 0 {
		return nil
	}

	c := p.c
	c.mu.Lock()
	defer c.mu.Unlock()

	fail := func(err error) error {
		for _, pc := range calls {
			if pc.err == nil {
				pc.err = err
			}
		}
		return err
	}
	if err := fpPipelineFlush.Check(); err != nil {
		// Injected before any byte is written: the batch fails whole and
		// the connection (if any) is untouched.
		return fail(err)
	}
	if c.conn == nil {
		if err := c.connect(); err != nil {
			return fail(err)
		}
	}

	// Assign ids, open per-operation spans, and marshal the burst under
	// the client lock so pipelined and plain calls share one id sequence.
	var buf []byte
	for _, pc := range calls {
		c.nextID++
		pc.id = c.nextID
		pc.sp = c.startCallSpan(pc.ctx, pc.Method)
		line, err := json.Marshal(&Request{ID: pc.id, Method: pc.Method, Params: pc.params, Frames: len(pc.frames), Trace: pc.sp.Header()})
		if err != nil {
			pc.sp.End()
			return fail(err)
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
		for _, f := range pc.frames {
			buf = AppendFrameT(buf, f, pc.sp.Context())
		}
	}
	endSpans := func() {
		for _, pc := range calls {
			if pc.err != nil {
				pc.sp.SetTag("err", pc.err.Error())
			}
			pc.sp.End()
		}
	}
	defer endSpans()

	if c.callTimeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.callTimeout)); err != nil {
			return fail(err)
		}
		defer c.conn.SetDeadline(time.Time{}) //nolint:errcheck // best-effort reset
	}

	// Write in the background while the foreground drains responses —
	// otherwise a batch larger than the socket buffers deadlocks (server
	// blocked writing responses we are not reading, us blocked writing
	// requests it is not reading). The burst write is attributed to the
	// first operation's span as its wire.flush child.
	conn := c.conn
	wrote := make(chan error, 1)
	wstart := time.Now()
	go func() {
		_, err := conn.Write(buf)
		calls[0].sp.ChildAt("wire.flush", wstart, time.Since(wstart))
		wrote <- err
	}()

	var flushErr error
	for _, pc := range calls {
		resp, frames, _, err := c.readResponse()
		if err != nil {
			flushErr = err
			break
		}
		if resp.ID != pc.id {
			flushErr = fmt.Errorf("wire: pipelined response id %d, want %d", resp.ID, pc.id)
			break
		}
		if resp.Error != "" {
			pc.err = &OpError{Method: pc.Method, Msg: resp.Error}
		} else {
			pc.resp = frames
			if pc.result != nil {
				pc.err = json.Unmarshal(resp.Result, pc.result)
			}
		}
		// End the span as its response is matched: each pipelined
		// operation's duration reflects when *its* answer arrived, even
		// with many operations in flight.
		if pc.err != nil {
			pc.sp.SetTag("err", pc.err.Error())
		}
		pc.sp.End()
	}
	if flushErr != nil {
		// The stream is unusable mid-batch; drop the connection so the
		// writer unblocks and the next call redials.
		c.conn.Close()
		c.conn = nil
		<-wrote
		return fail(flushErr)
	}
	if err := <-wrote; err != nil {
		// All responses arrived, so the server saw every request — but a
		// connection that failed a write is not trustworthy for reuse.
		c.conn.Close()
		c.conn = nil
		return fail(err)
	}
	return nil
}

// DeployBatch links many independent source blobs in one round trip.
// With atomic set the server links all of them or none (the first blob
// failure unwinds the rest and fails the call); otherwise every blob is
// attempted and the result carries per-blob outcomes.
func (c *Client) DeployBatch(sources []string, atomic bool) (DeployBatchResult, error) {
	return Call[DeployBatchResult](context.Background(), c, MethodDeployBatch, DeployBatchParams{Sources: sources, Atomic: atomic})
}

// WriteMemoryBatch writes N buckets of one program's memory block under
// a single journaled group on the server. The (addr, value) pairs travel
// as one binary frame, so large batches skip per-entry JSON entirely.
func (c *Client) WriteMemoryBatch(program, mem string, writes []MemWriteEntry) (int, error) {
	var out MemWriteBatchResult
	_, err := c.Do(context.Background(), MethodMemWriteBatch,
		MemWriteBatchParams{Program: program, Mem: mem, Binary: true}, &out, EncodeWritePairs(writes))
	return out.Written, err
}

// ReadMemoryBulk reads a large virtual memory range via mem.readstream:
// the server answers with chunked binary frames which are reassembled
// into one value slice.
func (c *Client) ReadMemoryBulk(program, mem string, addr, count uint32) ([]uint32, error) {
	var out MemReadStreamResult
	frames, err := c.Do(context.Background(), MethodMemReadStream,
		MemReadStreamParams{Program: program, Mem: mem, Addr: addr, Count: count}, &out)
	if err != nil {
		return nil, err
	}
	vals := make([]uint32, 0, out.Count)
	for _, f := range frames {
		vs, err := DecodeU32s(f)
		if err != nil {
			return nil, err
		}
		vals = append(vals, vs...)
	}
	if uint32(len(vals)) != out.Count {
		return nil, fmt.Errorf("%w: stream delivered %d of %d words", ErrFrameCorrupt, len(vals), out.Count)
	}
	return vals, nil
}
