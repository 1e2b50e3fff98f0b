// Fleet-side tracing: the aggregator's own operation spans plus the
// fleet-merged ops view — one listing that stitches each of the fleet's
// traces with the per-member halves fetched by trace ID over the members'
// debug.trace verb, so a single deploy reads as one tree from client flush
// to member apply.
package fleet

import (
	"context"
	"errors"
	"sort"

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

// Ops returns the fleet-merged trace listing: the traces p selects from
// the aggregator's own store, newest first, each merged with every live
// member's half of the same ID. Halves are fetched by ID, so a member's
// unrelated traffic (health probes, other clients) cannot push them out of
// the view. A member answering "not found" holds no half; one that cannot
// be reached is skipped for the rest of the listing — inspection degrades,
// it never fails.
func (f *Fleet) Ops(ctx context.Context, p wire.OpsParams) wire.OpsResult {
	own := wire.TraceSnaps(f.tracer, p)
	parts := make([][]trace.TraceSnap, len(own))
	for i, ts := range own {
		parts[i] = []trace.TraceSnap{ts}
	}
	for _, m := range f.live() {
		for i, ts := range own {
			tj, err := wire.Call[wire.TraceJSON](ctx, m.b, wire.MethodDebugTrace, wire.TraceGetParams{ID: ts.ID.String()})
			var opErr *wire.OpError
			if errors.As(err, &opErr) {
				continue
			}
			if err != nil {
				break
			}
			parts[i] = append(parts[i], wire.JSONToSnap(tj))
		}
	}
	out := wire.OpsResult{Traces: make([]wire.TraceJSON, 0, len(own))}
	for _, ps := range parts {
		out.Traces = append(out.Traces, wire.SnapToJSON(trace.MergeSnaps(ps)))
	}
	sort.SliceStable(out.Traces, func(i, j int) bool {
		return out.Traces[i].StartNs > out.Traces[j].StartNs
	})
	return out
}
