package trace

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestIDsAndHeader(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	if tid.IsZero() || sid.IsZero() {
		t.Fatal("zero id generated")
	}
	if len(tid.String()) != 32 || len(sid.String()) != 16 {
		t.Fatalf("bad id rendering: %q %q", tid, sid)
	}
	sc := SpanContext{TraceID: tid, SpanID: sid}
	got, ok := ParseHeader(sc.Header())
	if !ok || got != sc {
		t.Fatalf("header round trip: got %+v ok=%v", got, ok)
	}
	if rt, ok := ParseTraceID(tid.String()); !ok || rt != tid {
		t.Fatalf("trace id round trip failed")
	}
}

func TestParseHeaderGarbled(t *testing.T) {
	bad := []string{
		"",
		"nonsense",
		strings.Repeat("0", 49), // zero ids
		strings.Repeat("a", 32) + ":" + strings.Repeat("b", 16), // wrong separator
		strings.Repeat("g", 32) + "-" + strings.Repeat("b", 16), // non-hex
		strings.Repeat("a", 32) + "-" + strings.Repeat("b", 15), // short span
		strings.Repeat("a", 33) + "-" + strings.Repeat("b", 16), // long trace
		strings.Repeat("a", 32) + "-" + strings.Repeat("0", 16), // zero span
	}
	for _, s := range bad {
		if sc, ok := ParseHeader(s); ok {
			t.Fatalf("ParseHeader(%q) accepted: %+v", s, sc)
		}
	}
}

func TestDisabledTracerIsFree(t *testing.T) {
	tr := New(Options{})
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		c2, sp := tr.Start(ctx, "op")
		sp.SetTag("k", "v")
		child := sp.Child("sub")
		child.End()
		sp.End()
		if c2 != ctx {
			t.Fatal("disabled Start changed context")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocated %.1f/op", allocs)
	}
	if sp := Nop(); sp.Enabled() || sp.Header() != "" || sp.Tree() != nil {
		t.Fatal("nop span not inert")
	}
}

func TestSpanTreeAndStore(t *testing.T) {
	tr := New(Options{Capacity: 8})
	tr.SetEnabled(true)
	ctx, root := tr.Start(context.Background(), "deploy")
	if !root.Enabled() {
		t.Fatal("root disabled")
	}
	lock := root.Child("lock.wait")
	lock.End()
	ctx2, apply := tr.Start(ctx, "apply")
	apply.SetTag("phase", "apply")
	inner := SpanFromContext(ctx2).Child("journal.commit")
	inner.End()
	apply.End()
	root.ChildAt("decode", time.Now().Add(-time.Millisecond), time.Millisecond)
	root.End()

	snaps := tr.Recent(0)
	if len(snaps) != 1 {
		t.Fatalf("want 1 trace, got %d", len(snaps))
	}
	ts := snaps[0]
	if ts.Verb != "deploy" || ts.ID.IsZero() || len(ts.Spans) != 5 {
		t.Fatalf("bad snap: verb=%q spans=%d", ts.Verb, len(ts.Spans))
	}
	tree := ts.Tree()
	if tree.Name != "deploy" || len(tree.Children) != 3 {
		t.Fatalf("bad tree: %s", tree)
	}
	var found bool
	tree.Walk(func(d int, n *Node) {
		if n.Name == "journal.commit" && d == 2 {
			found = true
		}
	})
	if !found {
		t.Fatalf("journal.commit not nested under apply: %s", tree)
	}

	got, ok := tr.Lookup(ts.ID)
	if !ok || got.ID != ts.ID {
		t.Fatal("Lookup miss")
	}
}

func TestRemoteJoinAndMerge(t *testing.T) {
	tr := New(Options{Capacity: 8})
	tr.SetEnabled(true)

	// Client half.
	_, cli := tr.Start(context.Background(), "cli.deploy")
	hdr := cli.Header()

	// Server half: parse the header as the wire would deliver it.
	sc, ok := ParseHeader(hdr)
	if !ok {
		t.Fatal("header did not parse")
	}
	srv := tr.StartRemote(sc, "srv.deploy")
	srv.Child("apply").End()
	srv.End()
	cli.End()

	ts, ok := tr.Lookup(cli.TraceID())
	if !ok {
		t.Fatal("lookup failed")
	}
	if ts.Remote {
		t.Fatal("merged snap should take the client (local root) identity")
	}
	tree := ts.Tree()
	// srv.deploy must hang beneath cli.deploy.
	var depth = -1
	tree.Walk(func(d int, n *Node) {
		if n.Name == "srv.deploy" {
			depth = d
		}
	})
	if tree.Name != "cli.deploy" || depth != 1 {
		t.Fatalf("server span not stitched under client span: %s", tree)
	}

	// Garbled header degrades to a fresh root, never an error.
	fresh := tr.StartRemote(SpanContext{}, "srv.orphan")
	if !fresh.Enabled() || fresh.TraceID() == cli.TraceID() {
		t.Fatal("invalid parent should start a fresh root")
	}
	fresh.End()
}

func TestRingEvictionAndSlowExemplars(t *testing.T) {
	tr := New(Options{Capacity: 4})
	tr.SetEnabled(true)
	var slowest TraceID
	for i := 0; i < 16; i++ {
		_, sp := tr.Start(context.Background(), "deploy")
		if i == 3 {
			time.Sleep(5 * time.Millisecond) // make one trace clearly slowest
			slowest = sp.TraceID()
		}
		sp.End()
	}
	if got := len(tr.Recent(0)); got != 4 {
		t.Fatalf("ring should hold 4, got %d", got)
	}
	slow := tr.Slowest("deploy")
	if len(slow) != slowPerVerb {
		t.Fatalf("want %d slow exemplars, got %d", slowPerVerb, len(slow))
	}
	if slow[0].ID != slowest {
		t.Fatalf("slowest exemplar not retained: got %s want %s", slow[0].ID, slowest)
	}
	// Evicted from the ring but still reachable via exemplars.
	if _, ok := tr.Lookup(slowest); !ok {
		t.Fatal("slow exemplar not findable by Lookup")
	}
	if len(tr.Slowest("")) != slowPerVerb {
		t.Fatal("all-verb slowest mismatch")
	}
}

func TestSubtreeExcludesSiblings(t *testing.T) {
	tr := New(Options{})
	tr.SetEnabled(true)
	_, root := tr.Start(context.Background(), "deploy")
	sib := root.Child("lock.wait")
	sib.End()
	link := root.Child("link")
	link.Child("parse").End()
	link.End()
	tree := link.Tree()
	if tree == nil || tree.Name != "link" || len(tree.Children) != 1 || tree.Children[0].Name != "parse" {
		t.Fatalf("subtree wrong: %v", tree)
	}
	root.End()
}

// TestConcurrentRecordingHammer races many goroutines recording spans
// against store eviction and readers; run under -race it is the
// concurrency check for the tracer core.
func TestConcurrentRecordingHammer(t *testing.T) {
	tr := New(Options{Capacity: 8})
	tr.SetEnabled(true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, sp := tr.Start(context.Background(), fmt.Sprintf("verb%d", g%3))
				var inner sync.WaitGroup
				for c := 0; c < 3; c++ {
					inner.Add(1)
					go func(c int) {
						defer inner.Done()
						child := SpanFromContext(ctx).Child("fan")
						child.SetTag("i", "x")
						child.End()
					}(c)
				}
				inner.Wait()
				sp.End()
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				tr.Recent(4)
				tr.Slowest("")
				tr.Lookup(NewTraceID())
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := len(tr.Recent(0)); got == 0 || got > 8 {
		t.Fatalf("ring out of bounds after hammer: %d", got)
	}
}

func TestContextHelpers(t *testing.T) {
	if SpanFromContext(context.Background()).Enabled() {
		t.Fatal("bare ctx carries a span")
	}
	tr := New(Options{})
	tr.SetEnabled(true)
	ctx, parent := tr.Start(context.Background(), "srv")
	if SpanFromContext(ctx) != parent {
		t.Fatal("Start's context does not carry its span")
	}
	_, child := tr.Start(ctx, "child")
	if child.TraceID() != parent.TraceID() {
		t.Fatal("Start under a traced ctx began a fresh trace")
	}
	child.End()
	parent.End()
	if StartChild(context.Background(), "x").Enabled() {
		t.Fatal("StartChild on bare ctx should be nop")
	}
}
