// Fleet-side tracing: the aggregator's own operation spans plus the
// fleet-merged ops view — one listing that stitches the fleet's traces
// with the per-member halves fetched over the members' debug.ops verb,
// merged by trace ID so a single deploy reads as one tree from client
// flush to member apply.
package fleet

import (
	"context"
	"sort"
	"time"

	"p4runpro/internal/obs/trace"
	"p4runpro/internal/wire"
)

// SetTracing attaches a tracer and flight recorder to the fleet. Either
// may be nil. Call before Start; the fields are read without
// synchronization by every fleet operation.
func (f *Fleet) SetTracing(tr *trace.Tracer, fr *trace.FlightRecorder) {
	f.tracer = tr
	f.flight = fr
}

// opSpan resolves the span a fleet operation's children attach to — the
// context's span (the wire server's srv.fleet.* span) when traced, else a
// fresh root from the fleet's own tracer, else the nop span. owned
// reports whether this call opened the span and must End it.
func (f *Fleet) opSpan(ctx context.Context, verb string) (_ context.Context, sp *trace.Span, owned bool) {
	if sp := trace.SpanFromContext(ctx); sp.Enabled() {
		return ctx, sp, false
	}
	if f.tracer.Enabled() {
		ctx, sp := f.tracer.Start(ctx, verb)
		return ctx, sp, true
	}
	return ctx, trace.Nop(), false
}

// flightOp records one completed fleet operation in the flight recorder.
func (f *Fleet) flightOp(kind, name, detail string, start time.Time, err error, sp *trace.Span) {
	if f.flight == nil {
		return
	}
	ev := trace.Event{Kind: kind, Name: name, Detail: detail, Dur: time.Since(start), Trace: sp.TraceID()}
	if err != nil {
		ev.Err = err.Error()
	}
	f.flight.Record(ev)
}

// flightEvent records an untimed fleet event (health transition,
// reconcile decision).
func (f *Fleet) flightEvent(kind, name, detail string) {
	if f.flight == nil {
		return
	}
	f.flight.Record(trace.Event{Kind: kind, Name: name, Detail: detail})
}

// Ops returns the fleet-merged trace listing: the aggregator's own traces
// with each member's same-ID halves merged in, newest first. Members that
// are down, fail the call, or run without a tracer contribute nothing —
// inspection degrades, it never fails.
func (f *Fleet) Ops(p wire.OpsParams) wire.OpsResult {
	own := wire.TraceSnaps(f.tracer, p)

	// Fetch member-side halves once, indexed by trace ID.
	remote := make(map[trace.TraceID][]trace.TraceSnap)
	f.mu.Lock()
	names := append([]string(nil), f.order...)
	f.mu.Unlock()
	for _, name := range names {
		m, ok := f.member(name)
		if !ok || f.stateOf(m) == Down {
			continue
		}
		res, err := m.b.DebugOps(context.Background(), wire.OpsParams{Limit: p.Limit})
		if err != nil {
			continue
		}
		for _, tj := range res.Traces {
			ts := wire.JSONToSnap(tj)
			remote[ts.ID] = append(remote[ts.ID], ts)
		}
	}

	out := wire.OpsResult{Traces: []wire.TraceJSON{}}
	for _, ts := range own {
		if parts, ok := remote[ts.ID]; ok {
			ts = trace.MergeSnaps(append([]trace.TraceSnap{ts}, parts...))
		}
		out.Traces = append(out.Traces, wire.SnapToJSON(ts))
	}
	sort.SliceStable(out.Traces, func(i, j int) bool {
		return out.Traces[i].StartNs > out.Traces[j].StartNs
	})
	return out
}
