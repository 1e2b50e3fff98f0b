// Wire-level tracing behavior: trace headers propagate (or degrade)
// across real TCP connections, and pipelined responses attribute to the
// right spans.
package wire

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"testing"

	"p4runpro/internal/obs/trace"
)

// startTracedServer is startServer with an enabled tracer attached.
func startTracedServer(t *testing.T) (*Server, *Client, *trace.Tracer) {
	t.Helper()
	ct := newTestController(t)
	srv := NewServer(ct, nil)
	srv.Tracer = trace.New(trace.Options{})
	srv.Tracer.SetEnabled(true)
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
	return srv, c, srv.Tracer
}

// TestGarbledTraceHeaderDegradesToFreshRoot: a request whose "tr" field is
// missing, truncated, or outright garbage is served normally — the server
// starts a fresh root trace instead of erroring — and a well-formed header
// joins the caller's trace ID.
func TestGarbledTraceHeaderDegradesToFreshRoot(t *testing.T) {
	srv, c, tr := startTracedServer(t)
	_ = srv

	conn, err := net.Dial("tcp", c.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	send := func(line string) Response {
		t.Helper()
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
		raw, err := br.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp Response
		if err := json.Unmarshal(raw, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	cases := []string{
		`{"id":1,"method":"status"}`,                                                          // tr missing
		`{"id":2,"method":"status","tr":"garbage"}`,                                           // tr nonsense
		`{"id":3,"method":"status","tr":"deadbeef-1234"}`,                                     // tr truncated
		`{"id":4,"method":"status","tr":"zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz-zzzzzzzzzzzzzzzz"}`, // right shape, not hex
	}
	for i, line := range cases {
		resp := send(line)
		if resp.Error != "" {
			t.Fatalf("case %d: request failed: %s", i, resp.Error)
		}
	}

	snaps := tr.Recent(0)
	if len(snaps) != len(cases) {
		t.Fatalf("recorded %d traces, want %d", len(snaps), len(cases))
	}
	ids := make(map[trace.TraceID]bool)
	for _, ts := range snaps {
		if ts.Verb != "srv.status" {
			t.Fatalf("verb = %q, want srv.status", ts.Verb)
		}
		if ts.Remote {
			t.Fatalf("degraded trace %s marked remote; want fresh root", ts.ID)
		}
		ids[ts.ID] = true
	}
	if len(ids) != len(cases) {
		t.Fatalf("degraded requests shared trace IDs: %d distinct of %d", len(ids), len(cases))
	}

	// A well-formed header joins the caller's trace.
	sc := trace.SpanContext{TraceID: trace.NewTraceID(), SpanID: trace.NewSpanID()}
	resp := send(fmt.Sprintf(`{"id":5,"method":"status","tr":"%s"}`, sc.Header()))
	if resp.Error != "" {
		t.Fatalf("traced request failed: %s", resp.Error)
	}
	ts, ok := tr.Lookup(sc.TraceID)
	if !ok {
		t.Fatalf("server did not join caller trace %s", sc.TraceID)
	}
	if !ts.Remote {
		t.Fatal("joined trace not marked remote")
	}
}

// TestPipelinedResponsesAttachToRightSpan: many operations in flight on
// one pipeline each get their own span; responses — including a mid-batch
// server error — land on the span of the operation they answer, and the
// burst write is attributed to the first operation as wire.flush.
func TestPipelinedResponsesAttachToRightSpan(t *testing.T) {
	_, c, _ := startServer(t)
	ctr := trace.New(trace.Options{})
	ctr.SetEnabled(true)
	c.tracer = ctr

	p := c.Pipeline()
	a := p.Call(MethodStatus, nil, nil)
	b := p.Call(MethodRevoke, RevokeParams{Name: "no-such-program"}, nil) // server-reported error
	d := p.Call(MethodPrograms, nil, nil)
	if err := p.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if a.Err() != nil || d.Err() != nil {
		t.Fatalf("healthy calls failed: %v / %v", a.Err(), d.Err())
	}
	if b.Err() == nil {
		t.Fatal("revoke of missing program did not fail")
	}

	snaps := ctr.Recent(0)
	if len(snaps) != 3 {
		t.Fatalf("recorded %d traces, want 3", len(snaps))
	}
	byVerb := make(map[string]trace.TraceSnap)
	for _, ts := range snaps {
		byVerb[ts.Verb] = ts
	}
	for _, verb := range []string{"cli.status", "cli.revoke", "cli.programs"} {
		if _, ok := byVerb[verb]; !ok {
			t.Fatalf("no trace for %s (have %v)", verb, verbsOf(snaps))
		}
	}

	// The error response attached to the revoke span, not its neighbors.
	findRoot := func(ts trace.TraceSnap) trace.SpanSnap {
		for _, sp := range ts.Spans {
			if sp.ID == ts.Root {
				return sp
			}
		}
		t.Fatalf("trace %s has no root span", ts.ID)
		return trace.SpanSnap{}
	}
	if !hasTag(findRoot(byVerb["cli.revoke"]), "err") {
		t.Fatal("revoke span missing err tag")
	}
	for _, verb := range []string{"cli.status", "cli.programs"} {
		if hasTag(findRoot(byVerb[verb]), "err") {
			t.Fatalf("%s span wrongly tagged err", verb)
		}
	}

	// wire.flush is charged to the first queued operation only.
	countFlush := func(ts trace.TraceSnap) int {
		n := 0
		for _, sp := range ts.Spans {
			if sp.Name == "wire.flush" {
				n++
			}
		}
		return n
	}
	if n := countFlush(byVerb["cli.status"]); n != 1 {
		t.Fatalf("first call has %d wire.flush spans, want 1", n)
	}
	if n := countFlush(byVerb["cli.revoke"]) + countFlush(byVerb["cli.programs"]); n != 0 {
		t.Fatalf("later calls carry %d wire.flush spans, want 0", n)
	}

	// Durations reflect when each response was matched: every span ended
	// (nonzero duration) even though all three shared one flush.
	for verb, ts := range byVerb {
		if findRoot(ts).Dur <= 0 {
			t.Fatalf("%s span never ended", verb)
		}
	}
}

func verbsOf(snaps []trace.TraceSnap) []string {
	out := make([]string, len(snaps))
	for i, ts := range snaps {
		out[i] = ts.Verb
	}
	return out
}

func hasTag(sp trace.SpanSnap, key string) bool {
	for _, tg := range sp.Tags {
		if tg.Key == key {
			return true
		}
	}
	return false
}
