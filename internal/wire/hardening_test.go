package wire

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/core"
	"p4runpro/internal/rmt"
)

// startServerTuned is startServer with request-size/timeout knobs applied
// before Listen.
func startServerTuned(t *testing.T, maxBytes int, readTimeout time.Duration) (*Server, string) {
	t.Helper()
	ct, err := controlplane.New(rmt.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ct, nil)
	srv.MaxRequestBytes = maxBytes
	srv.ReadTimeout = readTimeout
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func TestOversizedRequestRejected(t *testing.T) {
	_, addr := startServerTuned(t, 1024, time.Second)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// 4 KiB of valid-looking JSON against a 1 KiB bound.
	big := `{"id":1,"method":"deploy","params":{"source":"` + strings.Repeat("x", 4096) + `"}}` + "\n"
	if _, err := conn.Write([]byte(big)); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(conn)
	var resp Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatalf("no error response before close: %v", err)
	}
	if resp.Error != ErrRequestTooLarge.Error() {
		t.Errorf("error = %q, want %q", resp.Error, ErrRequestTooLarge)
	}
	// The connection is closed after the rejection.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Errorf("expected clean close, got %v", err)
	}
}

func TestStalledRequestClosed(t *testing.T) {
	_, addr := startServerTuned(t, 1024, 50*time.Millisecond)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Start a request but never finish the line; the per-read deadline
	// must cut the connection rather than pinning a goroutine forever.
	if _, err := conn.Write([]byte(`{"id":1,"method":"stat`)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	if _, err := conn.Read(buf); err != io.EOF {
		t.Errorf("stalled connection read = %v, want EOF", err)
	}
}

func TestIdleConnectionStaysOpen(t *testing.T) {
	// Read deadlines apply only once a request has started: a connection
	// that idles for longer than the read timeout must still be served.
	_, addr := startServerTuned(t, 1024, 30*time.Millisecond)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Status(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(120 * time.Millisecond) // 4x the read timeout
	if _, err := c.Status(); err != nil {
		t.Errorf("idle connection dropped: %v", err)
	}
}

// TestClientRedialsAfterBounce: a client whose server went away and came
// back on the same address loses at most one call, with a transport error,
// and the next call redials and succeeds. Nothing is re-sent.
func TestClientRedialsAfterBounce(t *testing.T) {
	srv, addr := startServerTuned(t, DefaultMaxRequestBytes, time.Second)
	c, err := Dial(addr, WithCallTimeout(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Status(); err != nil {
		t.Fatal(err)
	}
	// Bounce the server on the same address; the client's connection is
	// now dead.
	srv.Close()
	ct, err := controlplane.New(rmt.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(ct, nil)
	var addr2 string
	for i := 0; ; i++ {
		addr2, err = srv2.Listen(addr)
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if addr2 != addr {
		t.Fatalf("rebound to %s, want %s", addr2, addr)
	}
	t.Cleanup(func() { srv2.Close() })
	if _, err := c.Status(); err != nil {
		var oe *OpError
		if errors.As(err, &oe) {
			t.Fatalf("first call after bounce: %v, want a transport error", err)
		}
		if _, err := c.Status(); err != nil {
			t.Fatalf("second call after bounce: %v", err)
		}
	}
	if got := srv2.cRequests.Value(); got != 1 {
		t.Errorf("new server saw %v requests, want only the call that succeeded", got)
	}
}

func TestServerErrorsAreNotRetried(t *testing.T) {
	srv, addr := startServerTuned(t, DefaultMaxRequestBytes, time.Second)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := srv.cRequests.Value()
	if _, err := c.Deploy("program broken("); err == nil {
		t.Fatal("broken deploy accepted")
	}
	if got := srv.cRequests.Value() - before; got != 1 {
		t.Errorf("server saw %v requests for one failing call, want 1 (no retry)", got)
	}
}

// TestHugeMemReadRefused: a memory read whose count covers the whole
// uint32 space must come back as a verb error, not exhaust the daemon's
// memory, and the connection must keep serving.
func TestHugeMemReadRefused(t *testing.T) {
	_, c, _ := startServer(t)
	if _, err := c.Deploy(testProgram); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reads := map[string]any{
		MethodMemRead:       MemReadParams{Program: "counter", Mem: "m", Addr: 1, Count: 0xFFFFFFFF},
		MethodMemReadStream: MemReadStreamParams{Program: "counter", Mem: "m", Addr: 1, Count: 0xFFFFFFFF},
	}
	for method, params := range reads {
		_, err := c.Do(ctx, method, params, nil)
		var oe *OpError
		if !errors.As(err, &oe) {
			t.Errorf("%s with count 0xFFFFFFFF: err = %v, want *OpError", method, err)
		}
		if _, err := c.Status(); err != nil {
			t.Fatalf("status after %s: %v", method, err)
		}
	}
}
