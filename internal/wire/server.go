package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/faults"
	"p4runpro/internal/obs"
	"p4runpro/internal/obs/trace"
)

// Fault-injection points (see internal/faults): chaos tests arm these to
// prove a connection dying mid-request or mid-response never corrupts the
// controller and the client's retry on a fresh connection succeeds.
var (
	fpConnRead  = faults.Register("wire.conn.read")
	fpConnWrite = faults.Register("wire.conn.write")
)

// ErrRequestTooLarge reports a request line exceeding the server's bound.
// It is sent back to the client verbatim before the connection closes.
var ErrRequestTooLarge = errors.New("wire: request exceeds size limit")

// Server limits. A stalled or malicious client must not pin a connection
// goroutine: request lines are bounded, and once the first byte of a
// request arrives the rest must follow within the read timeout. Waiting
// for a request to *start* carries no deadline, so idle long-lived CLI
// connections stay open.
const (
	DefaultMaxRequestBytes = 16 << 20
	DefaultReadTimeout     = 30 * time.Second
)

// Server serves the control protocol from one dispatch table (see
// verbs.go), over TCP once told to Listen and in-process through Do.
// NewServer fills it with the single-switch verbs bound to a Controller
// (the classic daemon, or an in-process fleet member); NewBareServer
// leaves those out, so only what Handle registers — the fleet.* verbs in
// fleet mode — is served beside the metrics and debug verbs every server
// shape answers.
type Server struct {
	reg *obs.Registry
	ln  net.Listener
	log *obs.Logger

	// MaxRequestBytes bounds one request line; ReadTimeout bounds how long
	// a started request may take to arrive. Set before Listen; zero values
	// select the defaults.
	MaxRequestBytes int
	ReadTimeout     time.Duration

	// Tracer records request spans (joined to the caller's trace via the
	// request's "tr" field) and serves the debug.ops/debug.trace verbs.
	// Flight backs debug.flightrec. Both optional; set before Listen.
	Tracer *trace.Tracer
	Flight *trace.FlightRecorder

	cConns    *obs.Counter
	gActive   *obs.Gauge
	cRequests *obs.Counter
	cReqErrs  *obs.Counter

	mu        sync.Mutex
	handlers  map[string]handler
	conns     map[net.Conn]struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// NewServer wraps a controller. logger may be nil for silence; log volume
// and request outcomes are still counted in the controller's registry.
func NewServer(ct *controlplane.Controller, logger *log.Logger) *Server {
	s := NewBareServer(ct.Obs, logger)
	for method, bind := range switchVerbs {
		s.register(method, bind(ct))
	}
	return s
}

// NewBareServer builds a server with no controller: only the verbs added
// with Handle, the metrics verb over reg and the debug verbs are served.
// The single-switch verbs answer with an error directing the caller to a
// single-switch daemon.
func NewBareServer(reg *obs.Registry, logger *log.Logger) *Server {
	s := &Server{
		reg:       reg,
		log:       obs.NewLogger(logger, reg, "wire"),
		cConns:    reg.Counter("p4runpro_wire_connections_total", "TCP control connections accepted."),
		gActive:   reg.Gauge("p4runpro_wire_connections_active", "TCP control connections currently open."),
		cRequests: reg.Counter("p4runpro_wire_requests_total", "Control requests dispatched (all methods)."),
		cReqErrs:  reg.Counter("p4runpro_wire_request_errors_total", "Control requests answered with an error."),
		handlers:  make(map[string]handler),
		conns:     make(map[net.Conn]struct{}),
		done:      make(chan struct{}),
	}
	// Metrics and the debug verbs are served on every server shape — bare,
	// fleet, or single-switch — so a misbehaving daemon can always be
	// inspected.
	Handle(s, MethodMetrics, s.metrics)
	Handle(s, MethodDebugOps, s.debugOps)
	Handle(s, MethodDebugTrace, s.debugTrace)
	Handle(s, MethodDebugFlightrec, s.debugFlightrec)
	return s
}

func (s *Server) register(method string, h handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.handlers[method]; ok {
		panic(fmt.Sprintf("wire: handler for %q registered twice", method))
	}
	s.handlers[method] = h
}

// dispatch routes one request through the table. A single-switch verb
// this server does not hold (fleet mode) gets a pointed answer rather
// than "unknown method".
func (s *Server) dispatch(ctx context.Context, req Request, frames [][]byte) (any, [][]byte, error) {
	s.mu.Lock()
	h, ok := s.handlers[req.Method]
	s.mu.Unlock()
	if ok {
		return h(ctx, req.Params, frames)
	}
	if _, ok := switchVerbs[req.Method]; ok {
		return nil, nil, fmt.Errorf("method %q needs a single-switch daemon (this one serves a fleet; use the fleet.* verbs)", req.Method)
	}
	return nil, nil, fmt.Errorf("unknown method %q", req.Method)
}

// Do runs one verb in-process with the codec of a TCP round trip: params
// are marshalled, dispatched through the same table, and the result is
// marshalled and decoded into result (nil discards it). Request and
// response frames pass through unchanged, and a verb's failure comes back
// as the *OpError a client would see. Nothing of the transport runs: no
// srv.* span, no request counted. ctx reaches the handler as is, so a
// caller's span parents the verb's own spans.
func (s *Server) Do(ctx context.Context, method string, params, result any, frames ...[]byte) ([][]byte, error) {
	req := Request{Method: method}
	if params != nil {
		raw, err := json.Marshal(params)
		if err != nil {
			return nil, err
		}
		req.Params = raw
	}
	out, rframes, err := s.dispatch(ctx, req, frames)
	if err != nil {
		return nil, &OpError{Method: method, Msg: err.Error()}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		return nil, &OpError{Method: method, Msg: "marshal result: " + err.Error()}
	}
	if result != nil {
		if err := json.Unmarshal(raw, result); err != nil {
			return nil, err
		}
	}
	return rframes, nil
}

// metrics renders one scrape of the server's registry.
func (s *Server) metrics(_ context.Context, p MetricsParams) (MetricsResult, error) {
	switch p.Format {
	case "", MetricsFormatPrometheus:
		return MetricsResult{Format: MetricsFormatPrometheus, Body: s.reg.Prometheus()}, nil
	case MetricsFormatJSON:
		body, err := s.reg.JSON()
		if err != nil {
			return MetricsResult{}, err
		}
		return MetricsResult{Format: MetricsFormatJSON, Body: string(body)}, nil
	default:
		return MetricsResult{}, fmt.Errorf("unknown metrics format %q", p.Format)
	}
}

// Listen binds addr ("host:port"; ":0" for an ephemeral port) and starts
// accepting connections in the background.
func (s *Server) Listen(addr string) (string, error) {
	if s.MaxRequestBytes <= 0 {
		s.MaxRequestBytes = DefaultMaxRequestBytes
	}
	if s.ReadTimeout <= 0 {
		s.ReadTimeout = DefaultReadTimeout
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Close stops the listener and all connections. It is idempotent.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.done)
		if s.ln != nil {
			err = s.ln.Close()
		}
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
	})
	return err
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.log.Errorf("wire: accept: %v", err)
			return
		}
		s.cConns.Inc()
		s.gActive.Add(1)
		s.log.Infof("wire: accept %s", conn.RemoteAddr())
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// readLine reads one newline-terminated request. The caller has already
// confirmed a byte is pending; each buffered chunk must arrive within
// timeout, and the accumulated line may not exceed max bytes.
func readLine(conn net.Conn, br *bufio.Reader, max int, timeout time.Duration) ([]byte, error) {
	var line []byte
	for {
		if err := conn.SetReadDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
		chunk, err := br.ReadSlice('\n')
		line = append(line, chunk...)
		if len(line) > max {
			return nil, ErrRequestTooLarge
		}
		switch {
		case err == nil:
			return line[:len(line)-1], nil // strip '\n'
		case errors.Is(err, bufio.ErrBufferFull):
			continue
		default:
			return nil, err
		}
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.gActive.Add(-1)
		s.log.Infof("wire: close %s", conn.RemoteAddr())
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	enc := json.NewEncoder(conn)
	for {
		// Block without a deadline until a request starts...
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			return
		}
		if _, err := br.Peek(1); err != nil {
			return
		}
		// ...then the rest of the line must keep arriving.
		if err := fpConnRead.Check(); err != nil {
			s.log.Errorf("wire: %s: read: %v", conn.RemoteAddr(), err)
			return
		}
		line, err := readLine(conn, br, s.MaxRequestBytes, s.ReadTimeout)
		if err != nil {
			if errors.Is(err, ErrRequestTooLarge) {
				s.cRequests.Inc()
				s.cReqErrs.Inc()
				s.log.Errorf("wire: %s: %v", conn.RemoteAddr(), err)
				enc.Encode(&Response{Error: err.Error()}) //nolint:errcheck // closing anyway
			} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
				s.log.Errorf("wire: %s: request stalled past %v", conn.RemoteAddr(), s.ReadTimeout)
			}
			return
		}
		if len(line) == 0 {
			continue
		}
		decodeStart := time.Now()
		resp := Response{}
		s.cRequests.Inc()
		var respFrames [][]byte
		req, err := ParseRequest(line)
		if err != nil {
			resp.Error = err.Error()
		} else {
			resp.ID = req.ID
			// A request announcing binary frames must deliver them before
			// anything else happens on the connection; an out-of-bound
			// count or an oversized/corrupt frame gets a typed error
			// response and closes the connection (the stream position past
			// the violation is unknowable).
			frames, fsc, ferr, fatal := s.readReqFrames(conn, br, req)
			if ferr != nil {
				resp.Error = ferr.Error()
				s.cReqErrs.Inc()
				s.log.Errorf("wire: %s (id=%d): %s", req.Method, req.ID, resp.Error)
				enc.Encode(&resp) //nolint:errcheck // closing anyway
				if fatal {
					return
				}
				continue
			}
			ctx, sp := s.startRequestSpan(req, fsc, decodeStart)
			result, rframes, err := s.dispatch(ctx, req, frames)
			if err != nil {
				resp.Error = err.Error()
				sp.SetTag("err", err.Error())
			} else {
				raw, err := json.Marshal(result)
				if err != nil {
					resp.Error = "marshal result: " + err.Error()
				} else {
					resp.Result = raw
					respFrames = rframes
					resp.Frames = len(rframes)
				}
			}
			sp.End()
		}
		if resp.Error != "" {
			s.cReqErrs.Inc()
			s.log.Errorf("wire: %s (id=%d): %s", req.Method, req.ID, resp.Error)
		}
		if err := fpConnWrite.Check(); err != nil {
			s.log.Errorf("wire: %s: write: %v", conn.RemoteAddr(), err)
			return
		}
		if err := enc.Encode(&resp); err != nil {
			s.log.Errorf("wire: write response: %v", err)
			return
		}
		if len(respFrames) > 0 {
			var fb []byte
			for _, f := range respFrames {
				fb = AppendFrame(fb, f)
			}
			if _, err := conn.Write(fb); err != nil {
				s.log.Errorf("wire: write response frames: %v", err)
				return
			}
		}
	}
}

// startRequestSpan opens the server-side span for one request, joined to
// the caller's trace when the request line (or, failing that, the first
// binary frame) carried a span context. A missing or garbled context
// degrades to a fresh root trace — never an error.
func (s *Server) startRequestSpan(req Request, fsc trace.SpanContext, decodeStart time.Time) (context.Context, *trace.Span) {
	ctx := context.Background()
	if !s.Tracer.Enabled() {
		return ctx, trace.Nop()
	}
	sc, ok := trace.ParseHeader(req.Trace)
	if !ok {
		sc = fsc
	}
	sp := s.Tracer.StartRemote(sc, "srv."+req.Method)
	sp.ChildAt("srv.decode", decodeStart, time.Since(decodeStart))
	return trace.ContextWithSpan(ctx, sp), sp
}

// readReqFrames reads the binary frames a parsed request announced,
// returning the first frame's trace header (if any) so a request whose
// JSON line lost the "tr" field can still join its caller's trace. The
// returned error is reported to the client; fatal additionally closes the
// connection (frame-count violations and oversized/corrupt frames leave
// the stream position unknowable).
func (s *Server) readReqFrames(conn net.Conn, br *bufio.Reader, req Request) (frames [][]byte, fsc trace.SpanContext, err error, fatal bool) {
	if req.Frames == 0 {
		return nil, trace.SpanContext{}, nil, false
	}
	if req.Frames < 0 || req.Frames > MaxFramesPerMessage {
		return nil, trace.SpanContext{}, fmt.Errorf("%w: %d", ErrBadFrameCount, req.Frames), true
	}
	for i := 0; i < req.Frames; i++ {
		if err := conn.SetReadDeadline(time.Now().Add(s.ReadTimeout)); err != nil {
			return nil, trace.SpanContext{}, err, true
		}
		f, sc, err := ReadFrameT(br, s.MaxRequestBytes)
		if err != nil {
			return nil, trace.SpanContext{}, err, true
		}
		if i == 0 {
			fsc = sc
		}
		frames = append(frames, f)
	}
	return frames, fsc, nil, false
}
