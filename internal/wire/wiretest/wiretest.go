// Package wiretest holds the golden wire-capture helpers shared by the
// packages that register verbs on a wire.Server (wire, fleet, telemetry):
// a byte-recording stub daemon for the request side, a raw connection
// that drives a real server for the response side, and a golden-file
// comparison. The captures pin the protocol's bytes across refactors of
// the client, the server's dispatch and the verb handlers.
//
// Rewrite the golden files with `go test <pkg> -run Golden -update`.
package wiretest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"p4runpro/internal/obs"
	"p4runpro/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the golden wire captures instead of comparing against them")

// Golden compares got with the file at path (rewriting it under -update).
func Golden(t testing.TB, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden capture missing (run with -update on a known-good commit): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// Capture accumulates named byte captures into one golden document:
// a "== name" header per case, then the bytes one quoted line per
// newline-terminated piece (binary frames stay legible as escapes, and
// equal renderings mean equal bytes).
type Capture struct{ buf bytes.Buffer }

// Add appends one named capture.
func (c *Capture) Add(name string, b []byte) {
	c.buf.WriteString("== " + name + "\n")
	for len(b) > 0 {
		i := bytes.IndexByte(b, '\n') + 1
		if i == 0 {
			i = len(b)
		}
		c.buf.WriteString(strconv.QuoteToASCII(string(b[:i])) + "\n")
		b = b[i:]
	}
}

// Bytes returns the document so far.
func (c *Capture) Bytes() []byte { return c.buf.Bytes() }

// Recorder is a stub daemon that records every byte clients send it and
// answers each request (once its announced frames have arrived) with a
// null result under the request's id, which every typed client method
// accepts.
type Recorder struct {
	ln net.Listener
	mu sync.Mutex
	b  []byte
}

// NewRecorder starts a recorder on an ephemeral port, closed with t.
func NewRecorder(t testing.TB) *Recorder {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &Recorder{ln: ln}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go r.serve(conn)
		}
	}()
	return r
}

// Addr is the address clients dial.
func (r *Recorder) Addr() string { return r.ln.Addr().String() }

// Take returns the bytes received since the previous Take. A client call
// has returned only after its whole request was recorded, so calling
// Take between calls splits the stream per call.
func (r *Recorder) Take() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.b
	r.b = nil
	return b
}

func (r *Recorder) record(b []byte) {
	r.mu.Lock()
	r.b = append(r.b, b...)
	r.mu.Unlock()
}

func (r *Recorder) serve(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return
		}
		r.record(line)
		var req struct {
			ID     int64 `json:"id"`
			Frames int   `json:"frames"`
		}
		if err := json.Unmarshal(line, &req); err != nil {
			return
		}
		for i := 0; i < req.Frames; i++ {
			// Keep the raw frame bytes (length word, CRC, optional trace
			// header, payload), not the decoded payload.
			hdr, err := br.Peek(8)
			if err != nil {
				return
			}
			n := 8 + int((uint32(hdr[0])|uint32(hdr[1])<<8|uint32(hdr[2])<<16|uint32(hdr[3])<<24)&^(1<<31))
			raw := make([]byte, n)
			if _, err := io.ReadFull(br, raw); err != nil {
				return
			}
			r.record(raw)
		}
		if _, err := conn.Write([]byte(`{"id":` + strconv.FormatInt(req.ID, 10) + `,"result":null}` + "\n")); err != nil {
			return
		}
	}
}

// Conn is a raw protocol connection to a real server.
type Conn struct {
	t    testing.TB
	conn net.Conn
	br   *bufio.Reader
}

// Dial opens a raw connection to addr, closed with t.
func Dial(t testing.TB, addr string) *Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &Conn{t: t, conn: conn, br: bufio.NewReader(conn)}
}

// Do writes one request — the JSON line plus pre-framed trailing bytes —
// and returns the response line, normalized, followed by its frames raw.
func (c *Conn) Do(line string, framed ...[]byte) []byte {
	c.t.Helper()
	out := []byte(line + "\n")
	for _, f := range framed {
		out = append(out, f...)
	}
	if _, err := c.conn.Write(out); err != nil {
		c.t.Fatalf("%s: write: %v", line, err)
	}
	respLine, err := c.br.ReadBytes('\n')
	if err != nil {
		c.t.Fatalf("%s: read: %v", line, err)
	}
	var resp wire.Response
	if err := json.Unmarshal(respLine, &resp); err != nil {
		c.t.Fatalf("%s: response %q: %v", line, respLine, err)
	}
	got := Normalize(respLine)
	for i := 0; i < resp.Frames; i++ {
		f, err := wire.ReadFrame(c.br, 0)
		if err != nil {
			c.t.Fatalf("%s: response frame %d: %v", line, i, err)
		}
		got = wire.AppendFrame(got, f)
	}
	return got
}

// measured names the response fields that carry host-measured durations,
// wall-clock stamps, temp paths or random identities; Normalize zeroes
// them so captures compare across runs. Modeled delays (update_delay) are
// deterministic and stay.
var measured = map[string]bool{
	"alloc_time": true, "total": true, "cutover_ns": true,
	"start_ns": true, "dur_us": true, "at": true,
	"last_probe_age": true, "wal_dir": true, "latency_ns": true,
}

var (
	promValue = regexp.MustCompile(`(?m)^([^#\n][^\n]*) [^ \n]+$`)
	hexID     = regexp.MustCompile(`^[0-9a-f]{16}$|^[0-9a-f]{32}$`)
)

// Normalize rewrites one response line with measured fields zeroed, span
// and trace IDs renamed in order of first appearance (parent links stay
// checkable), and a metrics body reduced to its series names.
func Normalize(respLine []byte) []byte {
	var v any
	dec := json.NewDecoder(bytes.NewReader(respLine))
	dec.UseNumber()
	if err := dec.Decode(&v); err != nil {
		return respLine
	}
	ids := map[string]string{}
	out, err := json.Marshal(normalize(v, ids))
	if err != nil {
		return respLine
	}
	return append(out, '\n')
}

func normalize(v any, ids map[string]string) any {
	switch x := v.(type) {
	case map[string]any:
		if f, ok := x["format"].(string); ok {
			if body, ok := x["body"].(string); ok {
				x["body"] = seriesNames(f, body)
			}
		}
		// Visit keys in sorted order so ID renaming is deterministic.
		keys := make([]string, 0, len(x))
		for k := range x {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if measured[k] {
				switch x[k].(type) {
				case string:
					x[k] = ""
				default:
					x[k] = 0
				}
				continue
			}
			x[k] = normalize(x[k], ids)
		}
		return x
	case []any:
		for i := range x {
			x[i] = normalize(x[i], ids)
		}
		return x
	case string:
		if hexID.MatchString(x) {
			if _, ok := ids[x]; !ok {
				ids[x] = "id" + strconv.Itoa(len(ids)+1)
			}
			return ids[x]
		}
	}
	return v
}

// seriesNames strips sample values from a metrics scrape, keeping every
// series' name, labels and type.
func seriesNames(format, body string) string {
	if format != wire.MetricsFormatJSON {
		return promValue.ReplaceAllString(body, "$1")
	}
	var ms []obs.MetricJSON
	if json.Unmarshal([]byte(body), &ms) != nil {
		return body
	}
	var b strings.Builder
	for _, m := range ms {
		b.WriteString(m.Name + "{" + m.Labels + "} " + m.Type + "\n")
	}
	return b.String()
}
