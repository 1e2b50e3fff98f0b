package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
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
	// (The length word's high bit is the frameTraced flag, so the largest
	// representable length is 2^31-1; 0x40000000 is over any sane bound.)
	big := make([]byte, frameHeader)
	big[3] = 0x40 // length 0x40000000
	if _, _, err := DecodeFrame(big, 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("DecodeFrame err = %v, want ErrFrameTooLarge", err)
	}
	if _, err := ReadFrame(strings.NewReader(string(big)), 16); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("ReadFrame err = %v, want ErrFrameTooLarge", err)
	}
	flagged := make([]byte, frameHeader)
	flagged[3] = 0x80 // frameTraced set, zero-length body: shorter than the trace header
	if _, _, err := DecodeFrame(flagged, 0); !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("flagged-short decode err = %v, want ErrFrameCorrupt", err)
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
	req := `{"id":7,"method":"mem.writebatch","params":{"program":"x","mem":"m","binary":true},"frames":1}` + "\n"
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

// TestBatchVerbsRoundTrip drives deploy.batch, mem.writebatch (binary
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

	// Binary bulk write, then bulk read-back.
	writes := make([]MemWriteEntry, 300)
	for i := range writes {
		writes[i] = MemWriteEntry{Addr: uint32(i % 256), Value: uint32(i + 1)}
	}
	n, err := c.WriteMemoryBatch("counter", "m", writes)
	if err != nil || n != 300 {
		t.Fatalf("WriteMemoryBatch = %d, %v", n, err)
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

	// mem.readstream chunks: a small chunk size forces multiple frames.
	p := c.Pipeline()
	var out MemReadStreamResult
	pc := p.Call(MethodMemReadStream,
		MemReadStreamParams{Program: "counter", Mem: "m", Count: 256, ChunkWords: 64}, &out)
	if err := p.Flush(); err != nil || pc.Err() != nil {
		t.Fatalf("readstream flush: %v / %v", err, pc.Err())
	}
	if out.Chunks != 4 || len(pc.RespFrames()) != 4 {
		t.Fatalf("chunks = %d, frames = %d, want 4", out.Chunks, len(pc.RespFrames()))
	}
	var streamed []uint32
	for _, f := range pc.RespFrames() {
		vs, err := DecodeU32s(f)
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, vs...)
	}
	for a := range vals {
		if streamed[a] != vals[a] {
			t.Fatalf("stream bucket %d = %d, want %d", a, streamed[a], vals[a])
		}
	}

	// A chunk size that would need too many frames is rejected typed.
	pc = p.Call(MethodMemReadStream,
		MemReadStreamParams{Program: "counter", Mem: "m", Count: 256, ChunkWords: 1}, nil)
	if err := p.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if pc.Err() != nil {
		t.Fatalf("256 one-word frames should fit: %v", pc.Err())
	}
}

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
					MemWriteBatchParams{Program: "counter", Mem: "m", Binary: true},
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
