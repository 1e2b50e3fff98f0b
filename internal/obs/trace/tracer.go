package trace

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Options sizes a Tracer.
type Options struct {
	// Capacity bounds the ring of recent completed traces. Default 256.
	Capacity int
}

// slowPerVerb is how many slowest-trace exemplars a Tracer retains per root
// verb, independent of ring eviction.
const slowPerVerb = 4

// Tracer creates spans and stores completed traces. It is safe for
// concurrent use and disabled by default: a disabled Tracer (or a nil one)
// hands out the nop span and records nothing.
type Tracer struct {
	enabled atomic.Bool

	// ring of recently completed traces: lock-free writers claim a slot
	// with an atomic counter and publish with an atomic pointer store.
	ring []atomic.Pointer[trace]
	head atomic.Uint64

	slowMu sync.Mutex
	slow   map[string][]*trace // verb -> up to slowPerVerb slowest, unordered
}

// New returns a disabled Tracer; call SetEnabled(true) to turn it on.
func New(opts Options) *Tracer {
	if opts.Capacity <= 0 {
		opts.Capacity = 256
	}
	return &Tracer{
		ring: make([]atomic.Pointer[trace], opts.Capacity),
		slow: make(map[string][]*trace),
	}
}

// SetEnabled turns span recording on or off. Traces already stored remain
// readable after disabling.
func (t *Tracer) SetEnabled(v bool) {
	if t != nil {
		t.enabled.Store(v)
	}
}

// Enabled reports whether Start creates real spans.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Start begins a span named name: a child of ctx's span when ctx carries
// one, otherwise the root of a fresh trace. The returned context carries
// the new span. When the tracer is disabled, ctx is returned unchanged
// with the nop span.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if !t.Enabled() {
		return ctx, nopSpan
	}
	if parent := SpanFromContext(ctx); parent.Enabled() {
		sp := parent.Child(name)
		return ContextWithSpan(ctx, sp), sp
	}
	sp := t.root(name, SpanContext{})
	return ContextWithSpan(ctx, sp), sp
}

// StartRemote begins a server-side span under a parent parsed off the
// wire. An invalid (missing or garbled) parent degrades to a fresh root
// trace — never an error.
func (t *Tracer) StartRemote(parent SpanContext, name string) *Span {
	if !t.Enabled() {
		return nopSpan
	}
	return t.root(name, parent)
}

// root starts a new local trace; with a valid parent it adopts the remote
// trace ID and parents the root span under the remote span.
func (t *Tracer) root(name string, parent SpanContext) *Span {
	tr := &trace{tracer: t, verb: name, start: time.Now(), root: NewSpanID()}
	if parent.Valid() {
		tr.id = parent.TraceID
		tr.remote = true
	} else {
		tr.id = NewTraceID()
	}
	return &Span{t: tr, id: tr.root, parent: parent.SpanID, name: name, start: tr.start}
}

// finish is called when a trace's root span ends: publish into the ring
// and consider it for the per-verb slow exemplar set.
func (t *Tracer) finish(tr *trace) {
	i := t.head.Add(1) - 1
	t.ring[i%uint64(len(t.ring))].Store(tr)

	t.slowMu.Lock()
	set := t.slow[tr.verb]
	if len(set) < slowPerVerb {
		t.slow[tr.verb] = append(set, tr)
	} else {
		min := 0
		for j := 1; j < len(set); j++ {
			if set[j].rootDur() < set[min].rootDur() {
				min = j
			}
		}
		if tr.rootDur() > set[min].rootDur() {
			set[min] = tr
		}
	}
	t.slowMu.Unlock()
}

func (t *trace) rootDur() time.Duration {
	t.mu.Lock()
	d := t.dur
	t.mu.Unlock()
	return d
}

// Recent returns up to limit completed traces, newest first. Collections
// that share a trace ID (the client and server halves of one RPC recorded
// into the same store) are merged into a single snapshot.
func (t *Tracer) Recent(limit int) []TraceSnap {
	if t == nil {
		return nil
	}
	n := len(t.ring)
	if limit <= 0 {
		limit = n
	}
	head := t.head.Load()
	order := make([]TraceID, 0, n)
	parts := make(map[TraceID][]TraceSnap, n)
	for off := uint64(1); off <= uint64(n); off++ {
		if off > head {
			break
		}
		tr := t.ring[(head-off)%uint64(n)].Load()
		if tr == nil {
			continue
		}
		if _, ok := parts[tr.id]; !ok {
			order = append(order, tr.id)
		}
		parts[tr.id] = append(parts[tr.id], tr.snap())
	}
	out := make([]TraceSnap, 0, limit)
	for _, id := range order {
		if len(out) >= limit {
			break
		}
		out = append(out, MergeSnaps(parts[id]))
	}
	return out
}

// Slowest returns the retained slow exemplars, slowest first, optionally
// filtered to one verb ("" means all verbs).
func (t *Tracer) Slowest(verb string) []TraceSnap {
	if t == nil {
		return nil
	}
	t.slowMu.Lock()
	var trs []*trace
	if verb != "" {
		trs = append(trs, t.slow[verb]...)
	} else {
		for _, set := range t.slow {
			trs = append(trs, set...)
		}
	}
	t.slowMu.Unlock()
	out := make([]TraceSnap, 0, len(trs))
	for _, tr := range trs {
		out = append(out, tr.snap())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dur > out[j].Dur })
	return out
}

// Lookup finds a stored trace by ID, searching the ring then the slow
// exemplars, and merges every collection recorded under that ID.
func (t *Tracer) Lookup(id TraceID) (TraceSnap, bool) {
	if t == nil || id.IsZero() {
		return TraceSnap{}, false
	}
	var parts []TraceSnap
	seen := make(map[*trace]bool)
	for i := range t.ring {
		if tr := t.ring[i].Load(); tr != nil && tr.id == id && !seen[tr] {
			seen[tr] = true
			parts = append(parts, tr.snap())
		}
	}
	t.slowMu.Lock()
	for _, set := range t.slow {
		for _, tr := range set {
			if tr.id == id && !seen[tr] {
				seen[tr] = true
				parts = append(parts, tr.snap())
			}
		}
	}
	t.slowMu.Unlock()
	if len(parts) == 0 {
		return TraceSnap{}, false
	}
	return MergeSnaps(parts), true
}

// OpSpan resolves the span an operation's children attach to: the
// context's current span when the caller is traced (a wire server's
// srv.<verb> span, or a fleet fan-out span), else a fresh root named
// prefix+verb from tr, else the nop span. The name is built only for a
// fresh root. owned reports whether this call opened the span and must End
// it.
func OpSpan(ctx context.Context, tr *Tracer, prefix, verb string) (_ context.Context, sp *Span, owned bool) {
	if sp := SpanFromContext(ctx); sp.Enabled() {
		return ctx, sp, false
	}
	if tr.Enabled() {
		ctx, sp := tr.Start(ctx, prefix+verb)
		return ctx, sp, true
	}
	return ctx, nopSpan, false
}
