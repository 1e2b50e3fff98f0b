package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/core"
	"p4runpro/internal/rmt"
)

const dropWireSrc = `
program dropper(<hdr.ipv4.src, 11.0.0.0, 0xff000000>) {
    DROP;
}
`

// TestPipelineMixedOps: a pipeline carries heterogeneous verbs in one
// burst, each call gets its own result, a failing op surfaces as *OpError
// on that call alone, and the connection survives for plain calls after.
func TestPipelineMixedOps(t *testing.T) {
	_, c, _ := startServer(t)
	p := c.Pipeline()
	var dep []DeployResult
	var status string
	var progs []ProgramInfo
	pcDep := p.Call(MethodDeploy, DeployParams{Source: testProgram}, &dep)
	pcStatus := p.Call(MethodStatus, nil, &status)
	pcProgs := p.Call(MethodPrograms, nil, &progs)
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if pcDep.Err() != nil || len(dep) != 1 || dep[0].Program != "counter" {
		t.Fatalf("deploy = %+v, %v", dep, pcDep.Err())
	}
	if pcStatus.Err() != nil || !strings.Contains(status, "1 programs") {
		t.Fatalf("status = %q, %v", status, pcStatus.Err())
	}
	if pcProgs.Err() != nil || len(progs) != 1 {
		t.Fatalf("programs = %+v, %v", progs, pcProgs.Err())
	}

	// Reuse the same (now empty) pipeline: one op fails server-side, the
	// batch still completes and the other op answers.
	bad := p.Call(MethodDeploy, DeployParams{Source: "program broken("}, nil)
	good := p.Call(MethodStatus, nil, &status)
	if err := p.Flush(); err != nil {
		t.Fatalf("second Flush: %v", err)
	}
	var oe *OpError
	if !errors.As(bad.Err(), &oe) || oe.Method != MethodDeploy {
		t.Fatalf("bad deploy err = %v, want *OpError", bad.Err())
	}
	if good.Err() != nil {
		t.Fatalf("op after failed op: %v", good.Err())
	}
	// The connection is still the healthy original: plain calls work.
	if _, err := Call[[]ProgramInfo](bg, c, MethodPrograms, nil); err != nil {
		t.Fatalf("plain call after pipeline: %v", err)
	}
}

// TestPipelineEmptyAndEncodeError: flushing an empty pipeline is a no-op;
// an unmarshalable param poisons the whole batch before any byte is sent.
func TestPipelineEmptyAndEncodeError(t *testing.T) {
	_, c, _ := startServer(t)
	p := c.Pipeline()
	if err := p.Flush(); err != nil {
		t.Fatalf("empty flush: %v", err)
	}
	bad := p.Call(MethodStatus, func() {}, nil) // func does not marshal
	ok := p.Call(MethodStatus, nil, nil)
	if err := p.Flush(); err == nil {
		t.Fatal("flush with encode error succeeded")
	}
	if bad.Err() == nil || ok.Err() == nil {
		t.Fatal("encode failure did not fail every queued call")
	}
	// Connection untouched: plain calls still work.
	if _, err := c.Status(); err != nil {
		t.Fatalf("plain call after encode error: %v", err)
	}
}

// fakeIDServer answers every request line with a fixed, wrong response id.
func fakeIDServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					if _, err := br.ReadBytes('\n'); err != nil {
						return
					}
					if _, err := conn.Write([]byte(`{"id":9999,"result":true}` + "\n")); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// TestReadMemoryBulkCountsFramesFirst: a mem.readstream reply claiming
// 2^32-1 words over one three-word frame fails with ErrFrameCorrupt, and
// the client allocates nothing for the claimed words.
func TestReadMemoryBulkCountsFramesFirst(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		line, err := bufio.NewReader(conn).ReadBytes('\n')
		var req Request
		if err != nil || json.Unmarshal(line, &req) != nil {
			return
		}
		reply := fmt.Appendf(nil, `{"id":%d,"result":{"count":%d},"frames":1}`+"\n", req.ID, uint32(math.MaxUint32))
		conn.Write(AppendFrame(reply, EncodeU32s([]uint32{1, 2, 3}))) //nolint:errcheck // the client reports what arrived
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = c.ReadMemoryBulk("counter", "m", 0, math.MaxUint32)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("err = %v, want ErrFrameCorrupt", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("a three-word reply allocated %d bytes, want < 1 MB", grew)
	}
}

// TestOutOfOrderResponseIDRejected: a response whose id does not match the
// request in flight is a desynced stream — both the plain and the
// pipelined path must reject it and poison the connection rather than
// mis-attribute the result.
func TestOutOfOrderResponseIDRejected(t *testing.T) {
	addr := fakeIDServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Status(); err == nil || !strings.Contains(err.Error(), "response id") {
		t.Fatalf("plain call err = %v, want id-mismatch", err)
	}

	p := c.Pipeline()
	a := p.Call(MethodStatus, nil, nil)
	b := p.Call(MethodStatus, nil, nil)
	err = p.Flush()
	if err == nil || !strings.Contains(err.Error(), "pipelined response id") {
		t.Fatalf("Flush err = %v, want pipelined id-mismatch", err)
	}
	if a.Err() == nil || b.Err() == nil {
		t.Fatal("desync did not fail every queued call")
	}
}

// TestOversizedFrameRejectedTyped: a binary frame beyond the server's
// bound is rejected with the typed ErrFrameTooLarge before its payload is
// read, and the rejection arrives as a server-reported op error.
func TestOversizedFrameRejectedTyped(t *testing.T) {
	// Direct decode surface first: the typed errors are programmatic.
	big := make([]byte, frameHeader)
	big[3] = 0x40 // length 0x40000000
	if _, _, err := DecodeFrame(big, 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("DecodeFrame err = %v, want ErrFrameTooLarge", err)
	}
	if _, err := ReadFrame(strings.NewReader(string(big)), 16); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadFrame err = %v, want ErrFrameTooLarge", err)
	}
	flagged := make([]byte, frameHeader)
	flagged[3] = 0x80 // high bit set: length 2^31
	if _, _, err := DecodeFrame(flagged, 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("high-bit decode err = %v, want ErrFrameTooLarge", err)
	}
	corrupt := AppendFrame(nil, []byte("abc"))
	corrupt[4] ^= 0xff // break the CRC
	if _, _, err := DecodeFrame(corrupt, 0); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("corrupt decode err = %v, want ErrFrameCorrupt", err)
	}

	// Over the wire: a server with a small frame bound answers with the
	// typed error text and closes (the stream position is unknowable).
	ct := newTestController(t)
	srv := NewServer(ct, nil)
	srv.MaxRequestBytes = 1 << 10
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if _, err := c.Deploy(testProgram); err != nil {
		t.Fatal(err)
	}
	writes := make([]MemWriteEntry, 200) // 1600B frame > 1KB bound
	for i := range writes {
		writes[i] = MemWriteEntry{Addr: uint32(i % 256), Value: 1}
	}
	_, err = c.WriteMemoryBatch("counter", "m", writes)
	if err == nil || !strings.Contains(err.Error(), "binary frame exceeds size limit") {
		t.Fatalf("err = %v, want frame size rejection", err)
	}
}

// TestServerReadDeadlineHalfWrittenPipeline: a client that starts a
// pipelined burst and stalls — mid request line, or mid announced frame —
// must not pin the connection goroutine past the read timeout.
func TestServerReadDeadlineHalfWrittenPipeline(t *testing.T) {
	ct := newTestController(t)
	srv := NewServer(ct, nil)
	srv.ReadTimeout = 150 * time.Millisecond
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	// Half-written request line, no newline ever: the server closes the
	// connection without an answer once the timeout passes.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"id":1,"method":"status"`)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("read succeeded; want connection closed after stalled line")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server did not close the stalled-line connection within its read timeout")
	}

	// Announced frame never delivered: the server reports an error for the
	// request and closes.
	conn2, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	req := `{"id":7,"method":"mem.writebatch","params":{"program":"x","mem":"m"},"frames":1}` + "\n"
	if _, err := conn2.Write([]byte(req + "\x08\x00")); err != nil { // 2 of 8 header bytes
		t.Fatal(err)
	}
	conn2.SetReadDeadline(time.Now().Add(2 * time.Second))
	line, err := bufio.NewReader(conn2).ReadBytes('\n')
	if err != nil {
		t.Fatalf("no error response for stalled frame: %v", err)
	}
	if !strings.Contains(string(line), "error") {
		t.Fatalf("response = %s, want an error", line)
	}
}

func newTestController(t *testing.T) *controlplane.Controller {
	t.Helper()
	ct, err := controlplane.New(rmt.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// TestBatchVerbsRoundTrip drives deploy.batch, mem.writebatch (one binary
// frame) and mem.readstream end to end, including atomic unwind.
func TestBatchVerbsRoundTrip(t *testing.T) {
	_, c, ct := startServer(t)

	// Non-atomic: per-blob outcomes, the good blob sticks.
	res, err := c.DeployBatch([]string{testProgram, "program broken("}, false)
	if err != nil {
		t.Fatalf("DeployBatch: %v", err)
	}
	if len(res.Items) != 2 || res.Deployed != 1 {
		t.Fatalf("batch result = %+v", res)
	}
	if res.Items[0].Error != "" || len(res.Items[0].Programs) != 1 || res.Items[0].Programs[0].Program != "counter" {
		t.Fatalf("item 0 = %+v", res.Items[0])
	}
	if res.Items[1].Error == "" {
		t.Fatal("broken blob reported no error")
	}
	if _, err := c.Revoke("counter"); err != nil {
		t.Fatal(err)
	}

	// Atomic: the first failure unwinds the batch whole.
	_, err = c.DeployBatch([]string{testProgram, "program broken("}, true)
	if err == nil || !strings.Contains(err.Error(), "deploy.batch") {
		t.Fatalf("atomic batch err = %v", err)
	}
	if n := len(ct.Programs()); n != 0 {
		t.Fatalf("%d programs survived atomic unwind", n)
	}

	// Atomic success: both blobs land.
	res, err = c.DeployBatch([]string{testProgram, dropWireSrc}, true)
	if err != nil || res.Deployed != 2 {
		t.Fatalf("atomic batch = %+v, %v", res, err)
	}

	// Framed bulk write, then bulk read-back.
	writes := make([]MemWriteEntry, 300)
	for i := range writes {
		writes[i] = MemWriteEntry{Addr: uint32(i % 256), Value: uint32(i + 1)}
	}
	n, err := c.WriteMemoryBatch("counter", "m", writes)
	if err != nil || n != 300 {
		t.Fatalf("WriteMemoryBatch = %d, %v", n, err)
	}
	// The pairs ride only in the request's one frame: a request without
	// it is refused.
	var oe *OpError
	_, err = c.Do(context.Background(), MethodMemWriteBatch, MemWriteBatchParams{Program: "counter", Mem: "m"}, nil)
	if !errors.As(err, &oe) || !strings.Contains(oe.Msg, "wants 1 frame") {
		t.Fatalf("frameless mem.writebatch err = %v, want the one-frame refusal", err)
	}
	vals, err := c.ReadMemoryBulk("counter", "m", 0, 256)
	if err != nil {
		t.Fatalf("ReadMemoryBulk: %v", err)
	}
	if len(vals) != 256 {
		t.Fatalf("bulk read %d words", len(vals))
	}
	for a := 0; a < 256; a++ {
		want := uint32(a + 1) // last write to a wins
		if a < 300-256 {
			want = uint32(a + 256 + 1)
		}
		if vals[a] != want {
			t.Fatalf("bucket %d = %d, want %d", a, vals[a], want)
		}
	}

	// mem.readstream frames hold 16,384 words: a 20,000-word range takes
	// two, and the client stitches them back in order.
	if _, err := c.Deploy(bigMemWireSrc); err != nil {
		t.Fatal(err)
	}
	marks := []MemWriteEntry{{Addr: 0, Value: 1}, {Addr: 16383, Value: 2}, {Addr: 16384, Value: 3}, {Addr: 19999, Value: 4}}
	if _, err := c.WriteMemoryBatch("big", "big", marks); err != nil {
		t.Fatal(err)
	}
	p := c.Pipeline()
	var out MemReadStreamResult
	pc := p.Call(MethodMemReadStream, MemReadStreamParams{Program: "big", Mem: "big", Count: 20000}, &out)
	if err := p.Flush(); err != nil || pc.Err() != nil {
		t.Fatalf("readstream flush: %v / %v", err, pc.Err())
	}
	if frames := pc.RespFrames(); out.Count != 20000 || len(frames) != 2 || len(frames[0]) != 4*16384 {
		t.Fatalf("count = %d, %d frames; want 20000 words in a 16384-word frame and its rest", out.Count, len(frames))
	}
	big, err := c.ReadMemoryBulk("big", "big", 0, 20000)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range marks {
		if big[m.Addr] != m.Value {
			t.Fatalf("stream bucket %d = %d, want %d", m.Addr, big[m.Addr], m.Value)
		}
	}

	// A range that needs more than MaxFramesPerMessage frames is refused
	// before any word is read.
	pc = p.Call(MethodMemReadStream, MemReadStreamParams{Program: "counter", Mem: "m", Count: 1 << 25}, nil)
	if err := p.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if pc.Err() == nil || !strings.Contains(pc.Err().Error(), "frame count out of range") {
		t.Fatalf("2^25-word range err = %v, want the frame-count refusal", pc.Err())
	}
}

// bigMemWireSrc declares a memory block larger than one mem.readstream
// frame.
const bigMemWireSrc = `
@ big 32768
program big(<hdr.ipv4.src, 11.0.0.0, 0xff000000>) {
    LOADI(sar, 1);
    HASH_5_TUPLE_MEM(big);
    MEMADD(big);
}
`

// TestConcurrentPipelinedClients hammers one server with pipelined bursts
// from many clients plus plain calls interleaved on a shared client — the
// -race proof that pipelining doesn't corrupt client or server state.
func TestConcurrentPipelinedClients(t *testing.T) {
	srv, shared, _ := startServer(t)
	if _, err := shared.Deploy(testProgram); err != nil {
		t.Fatal(err)
	}
	addr := srv.ln.Addr().String()

	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 15; i++ {
				p := c.Pipeline()
				var status string
				a := p.Call(MethodStatus, nil, &status)
				b := p.Enqueue(context.Background(), MethodMemWriteBatch,
					MemWriteBatchParams{Program: "counter", Mem: "m"},
					nil, [][]byte{EncodeWritePairs([]MemWriteEntry{{Addr: uint32(w), Value: uint32(i)}})})
				var progs []ProgramInfo
				d := p.Call(MethodPrograms, nil, &progs)
				if err := p.Flush(); err != nil {
					errs <- fmt.Errorf("worker %d flush: %w", w, err)
					return
				}
				for _, pc := range []*PendingCall{a, b, d} {
					if pc.Err() != nil {
						errs <- fmt.Errorf("worker %d %s: %w", w, pc.Method, pc.Err())
						return
					}
				}
			}
		}(w)
		// Plain calls race the pipelines on the shared client.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if _, err := shared.Status(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
