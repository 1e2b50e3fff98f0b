// Package trace is the control-plane tracer: concurrency-safe spans with
// 128-bit trace IDs, context-based propagation, a bounded in-memory store
// of completed traces, and per-verb slow-op exemplars. It replaces the old
// non-concurrent obs.Span tree as the single span implementation.
//
// A disabled tracer (the default) costs nothing: Start returns the shared
// nop span without touching the context, and every Span method on the nop
// span is a branch and a return — zero allocations.
package trace

import (
	"context"
	"encoding/hex"
	"math/rand/v2"
	"sort"
	"sync"
	"time"
)

// TraceID is a 128-bit trace identifier, rendered as 32 lowercase hex digits.
type TraceID [16]byte

// SpanID is a 64-bit span identifier, rendered as 16 lowercase hex digits.
type SpanID [8]byte

var (
	zeroTrace TraceID
	zeroSpan  SpanID
)

// NewTraceID returns a random non-zero trace ID.
func NewTraceID() TraceID {
	var id TraceID
	for id == zeroTrace {
		hi, lo := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(hi >> (56 - 8*i))
			id[8+i] = byte(lo >> (56 - 8*i))
		}
	}
	return id
}

// NewSpanID returns a random non-zero span ID.
func NewSpanID() SpanID {
	var id SpanID
	for id == zeroSpan {
		v := rand.Uint64()
		for i := 0; i < 8; i++ {
			id[i] = byte(v >> (56 - 8*i))
		}
	}
	return id
}

func (t TraceID) IsZero() bool { return t == zeroTrace }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

func (s SpanID) IsZero() bool { return s == zeroSpan }

func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseTraceID parses 32 hex digits. It reports ok=false on anything else.
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	if len(s) != 32 {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return id, !id.IsZero()
}

// SpanContext identifies one span within one trace; it is what crosses
// process boundaries, as the "tr" field of the JSON-RPC envelope.
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
}

// Valid reports whether both IDs are non-zero.
func (sc SpanContext) Valid() bool { return !sc.TraceID.IsZero() && !sc.SpanID.IsZero() }

// Header renders the wire form "tttttttttttttttttttttttttttttttt-ssssssssssssssss".
func (sc SpanContext) Header() string {
	if !sc.Valid() {
		return ""
	}
	return sc.TraceID.String() + "-" + sc.SpanID.String()
}

// ParseHeader parses the wire form. A missing or garbled header is not an
// error — callers degrade to a fresh root trace — so it only reports ok.
func ParseHeader(s string) (SpanContext, bool) {
	var sc SpanContext
	if len(s) != 49 || s[32] != '-' {
		return sc, false
	}
	tid, ok := ParseTraceID(s[:32])
	if !ok {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(s[33:])); err != nil || sc.SpanID.IsZero() {
		return SpanContext{}, false
	}
	sc.TraceID = tid
	return sc, true
}

// Tag is one key=value attribution on a span, e.g. phase=lock-wait.
type Tag struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// SpanSnap is an immutable snapshot of one completed span.
type SpanSnap struct {
	ID     SpanID
	Parent SpanID
	Name   string
	Start  time.Time
	Dur    time.Duration
	Tags   []Tag
}

// TraceSnap is an immutable snapshot of one trace: its identity plus every
// span recorded so far, in completion order.
type TraceSnap struct {
	ID     TraceID
	Verb   string // root span name
	Root   SpanID
	Start  time.Time
	Dur    time.Duration // root span duration; 0 until the root ends
	Remote bool          // true when the root's parent lives in another process
	Spans  []SpanSnap
}

// Node is a rendered span tree — the portable, display-only form used by
// reports (e.g. DeployReport.Trace) and the CLI. It carries no IDs and no
// synchronization; build one with Span.Tree or TraceSnap.Tree.
type Node struct {
	Name     string        `json:"name"`
	Dur      time.Duration `json:"dur"`
	Tags     []Tag         `json:"tags,omitempty"`
	Children []*Node       `json:"children,omitempty"`
}

func (n *Node) walk(depth int, fn func(int, *Node)) {
	fn(depth, n)
	for _, c := range n.Children {
		c.walk(depth+1, fn)
	}
}

// String renders the tree on one line, e.g.
// "link 1.2ms (parse 0.2ms, allocate 0.9ms (solve 0.8ms))".
func (n *Node) String() string {
	out := n.Name + " " + n.Dur.String()
	if len(n.Children) > 0 {
		out += " ("
		for i, c := range n.Children {
			if i > 0 {
				out += ", "
			}
			out += c.String()
		}
		out += ")"
	}
	return out
}

// Tree assembles the span snapshots into a tree rooted at root. Spans whose
// parent is missing from the snapshot (e.g. a remote parent) are attached
// to the synthetic root in completion order.
func (ts TraceSnap) Tree() *Node {
	byID := make(map[SpanID]*Node, len(ts.Spans))
	order := make([]SpanID, 0, len(ts.Spans))
	for _, sp := range ts.Spans {
		byID[sp.ID] = &Node{Name: sp.Name, Dur: sp.Dur, Tags: sp.Tags}
		order = append(order, sp.ID)
	}
	var root *Node
	if n, ok := byID[ts.Root]; ok {
		root = n
	} else {
		root = &Node{Name: ts.Verb, Dur: ts.Dur}
	}
	// Attach children in start order so trees read chronologically.
	sort.SliceStable(order, func(i, j int) bool {
		a, b := ts.span(order[i]), ts.span(order[j])
		return a.Start.Before(b.Start)
	})
	for _, id := range order {
		sp := ts.span(id)
		if id == ts.Root {
			continue
		}
		parent, ok := byID[sp.Parent]
		if !ok {
			parent = root
		}
		parent.Children = append(parent.Children, byID[id])
	}
	return root
}

// MergeSnaps combines snapshots of the same trace gathered from multiple
// collections — the client and server halves of one RPC, or the per-member
// stores of a fleet. The snapshot holding the true root (no remote parent)
// provides the trace identity; span sets are unioned by span ID.
func MergeSnaps(parts []TraceSnap) TraceSnap {
	if len(parts) == 0 {
		return TraceSnap{}
	}
	base := 0
	for i, p := range parts {
		if !p.Remote && parts[base].Remote {
			base = i
		} else if p.Remote == parts[base].Remote && p.Start.Before(parts[base].Start) {
			base = i
		}
	}
	out := parts[base]
	seen := make(map[SpanID]bool, len(out.Spans))
	spans := make([]SpanSnap, 0, len(out.Spans))
	for _, sp := range out.Spans {
		if !seen[sp.ID] {
			seen[sp.ID] = true
			spans = append(spans, sp)
		}
	}
	for i, p := range parts {
		if i == base {
			continue
		}
		for _, sp := range p.Spans {
			if !seen[sp.ID] {
				seen[sp.ID] = true
				spans = append(spans, sp)
			}
		}
	}
	out.Spans = spans
	return out
}

func (ts TraceSnap) span(id SpanID) SpanSnap {
	for _, sp := range ts.Spans {
		if sp.ID == id {
			return sp
		}
	}
	return SpanSnap{}
}

// trace is the live, shared collection for one trace. Spans from any
// goroutine append to it as they end.
const maxSpansPerTrace = 512

type trace struct {
	tracer *Tracer
	id     TraceID
	verb   string
	root   SpanID
	start  time.Time
	remote bool

	mu      sync.Mutex
	spans   []SpanSnap
	dur     time.Duration
	dropped int
}

func (t *trace) add(sp SpanSnap) {
	t.mu.Lock()
	if len(t.spans) < maxSpansPerTrace {
		t.spans = append(t.spans, sp)
	} else {
		t.dropped++
	}
	if sp.ID == t.root {
		t.dur = sp.Dur
	}
	t.mu.Unlock()
}

func (t *trace) snap() TraceSnap {
	t.mu.Lock()
	spans := make([]SpanSnap, len(t.spans))
	copy(spans, t.spans)
	dur := t.dur
	t.mu.Unlock()
	return TraceSnap{ID: t.id, Verb: t.verb, Root: t.root, Start: t.start, Dur: dur, Remote: t.remote, Spans: spans}
}

// Span is one timed region of work inside a trace. All methods are safe on
// the nil and nop spans, so call sites never branch on whether tracing is
// enabled. A span is owned by the goroutine that created it; the backing
// trace it reports into is concurrency-safe.
type Span struct {
	t      *trace
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	tags   []Tag
	ended  bool
}

var nopSpan = &Span{}

// Nop returns the shared disabled span.
func Nop() *Span { return nopSpan }

// Enabled reports whether the span records anywhere.
func (s *Span) Enabled() bool { return s != nil && s.t != nil }

// Context returns the span's wire identity, or the zero SpanContext when
// disabled.
func (s *Span) Context() SpanContext {
	if !s.Enabled() {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.t.id, SpanID: s.id}
}

// Header returns the wire header for propagating this span, or "".
func (s *Span) Header() string { return s.Context().Header() }

// TraceID returns the owning trace's ID, or the zero ID when disabled.
func (s *Span) TraceID() TraceID {
	if !s.Enabled() {
		return TraceID{}
	}
	return s.t.id
}

// SetTag attaches a key=value attribution to the span.
func (s *Span) SetTag(key, value string) {
	if !s.Enabled() || s.ended {
		return
	}
	s.tags = append(s.tags, Tag{Key: key, Value: value})
}

// Child starts a new span under s in the same trace. The child may End on a
// different goroutine than its parent.
func (s *Span) Child(name string) *Span {
	if !s.Enabled() {
		return nopSpan
	}
	return &Span{t: s.t, id: NewSpanID(), parent: s.id, name: name, start: time.Now()}
}

// ChildAt records an already-measured child span — used when a region was
// timed before its trace identity was known (e.g. server-side decode, the
// compiler's cached parse phase).
func (s *Span) ChildAt(name string, start time.Time, dur time.Duration, tags ...Tag) {
	if !s.Enabled() {
		return
	}
	s.t.add(SpanSnap{ID: NewSpanID(), Parent: s.id, Name: name, Start: start, Dur: dur, Tags: tags})
}

// End stops the span and reports it into the trace. The second and later
// calls are no-ops.
func (s *Span) End() {
	if !s.Enabled() || s.ended {
		return
	}
	s.ended = true
	dur := time.Since(s.start)
	s.t.add(SpanSnap{ID: s.id, Parent: s.parent, Name: s.name, Start: s.start, Dur: dur, Tags: s.tags})
	if s.id == s.t.root {
		s.t.tracer.finish(s.t)
	}
}

// Tree renders the subtree rooted at s from the spans recorded so far.
// Call after End; live descendants are absent until they end.
func (s *Span) Tree() *Node {
	if !s.Enabled() {
		return nil
	}
	snap := s.t.snap()
	keep := map[SpanID]bool{s.id: true}
	for changed := true; changed; {
		changed = false
		for _, sp := range snap.Spans {
			if !keep[sp.ID] && keep[sp.Parent] {
				keep[sp.ID] = true
				changed = true
			}
		}
	}
	var filtered []SpanSnap
	for _, sp := range snap.Spans {
		if keep[sp.ID] {
			filtered = append(filtered, sp)
		}
	}
	snap.Spans = filtered
	snap.Root = s.id
	snap.Verb = s.name
	return snap.Tree()
}

type ctxKey struct{}

// ContextWithSpan returns a context carrying sp as the current span. The
// nop span is not stored — the context comes back unchanged.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if !sp.Enabled() {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// SpanFromContext returns the current span, or the nop span.
func SpanFromContext(ctx context.Context) *Span {
	if sp, ok := ctx.Value(ctxKey{}).(*Span); ok {
		return sp
	}
	return nopSpan
}

// StartChild starts a child of the context's current span, or returns the
// nop span when the context is untraced. It is the hook for code layers
// (e.g. the compiler) that hold a context but no tracer.
func StartChild(ctx context.Context, name string) *Span {
	return SpanFromContext(ctx).Child(name)
}
