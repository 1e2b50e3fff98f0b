// Observability verbs: debug.ops lists recent or slowest traces out of the
// server's trace store, debug.trace fetches one trace by ID, and
// debug.flightrec dumps the flight recorder. All three answer on every
// server shape (bare, fleet, single-switch) and degrade to empty results
// when the daemon runs without a tracer or recorder — inspection verbs
// must never themselves fail.
package wire

import (
	"context"
	"encoding/hex"
	"errors"
	"time"

	"p4runpro/internal/obs/trace"
)

func nsToTime(ns int64) time.Time { return time.Unix(0, ns) }

func usToDur(us int64) time.Duration { return time.Duration(us) * time.Microsecond }

func parseSpanID(s string) trace.SpanID {
	var id trace.SpanID
	if len(s) == 16 {
		hex.Decode(id[:], []byte(s)) //nolint:errcheck // zero ID on garble
	}
	return id
}

// SnapToJSON converts one trace snapshot into its wire DTO.
func SnapToJSON(ts trace.TraceSnap) TraceJSON {
	out := TraceJSON{
		ID:      ts.ID.String(),
		Verb:    ts.Verb,
		StartNs: ts.Start.UnixNano(),
		DurUs:   ts.Dur.Microseconds(),
		Remote:  ts.Remote,
		Spans:   make([]SpanJSON, 0, len(ts.Spans)),
	}
	for _, sp := range ts.Spans {
		j := SpanJSON{
			ID:      sp.ID.String(),
			Name:    sp.Name,
			StartNs: sp.Start.UnixNano(),
			DurUs:   sp.Dur.Microseconds(),
		}
		if !sp.Parent.IsZero() {
			j.Parent = sp.Parent.String()
		}
		if len(sp.Tags) > 0 {
			j.Tags = make(map[string]string, len(sp.Tags))
			for _, t := range sp.Tags {
				j.Tags[t.Key] = t.Value
			}
		}
		out.Spans = append(out.Spans, j)
	}
	return out
}

// JSONToSnap converts a wire trace back into a snapshot, so a fleet
// aggregator can merge member traces with its own through
// trace.MergeSnaps. Unparseable IDs degrade to zero IDs (the span still
// shows up, attached to the root).
func JSONToSnap(tj TraceJSON) trace.TraceSnap {
	id, _ := trace.ParseTraceID(tj.ID)
	ts := trace.TraceSnap{
		ID:     id,
		Verb:   tj.Verb,
		Start:  nsToTime(tj.StartNs),
		Dur:    usToDur(tj.DurUs),
		Remote: tj.Remote,
		Spans:  make([]trace.SpanSnap, 0, len(tj.Spans)),
	}
	for _, sj := range tj.Spans {
		sp := trace.SpanSnap{
			ID:     parseSpanID(sj.ID),
			Parent: parseSpanID(sj.Parent),
			Name:   sj.Name,
			Start:  nsToTime(sj.StartNs),
			Dur:    usToDur(sj.DurUs),
		}
		for k, v := range sj.Tags {
			sp.Tags = append(sp.Tags, trace.Tag{Key: k, Value: v})
		}
		ts.Spans = append(ts.Spans, sp)
	}
	// The root span is whichever span has no in-trace parent and matches
	// the verb; recover it so Tree() roots correctly.
	for _, sp := range ts.Spans {
		if sp.Name == tj.Verb && sp.Parent.IsZero() {
			ts.Root = sp.ID
			break
		}
	}
	if ts.Root.IsZero() {
		for _, sp := range ts.Spans {
			if sp.Name == tj.Verb {
				ts.Root = sp.ID
				break
			}
		}
	}
	return ts
}

// EventToJSON converts one flight-recorder event into its wire DTO.
func EventToJSON(ev trace.Event) FlightEventJSON {
	j := FlightEventJSON{
		At:     nsToTime(ev.At).UTC().Format(time.RFC3339Nano),
		Kind:   ev.Kind,
		Name:   ev.Name,
		Detail: ev.Detail,
		DurUs:  ev.Dur.Microseconds(),
		Err:    ev.Err,
	}
	if !ev.Trace.IsZero() {
		j.Trace = ev.Trace.String()
	}
	return j
}

// TraceSnaps selects the traces a debug.ops / fleet.ops listing asks for
// out of tr: the slowest exemplars (of one verb, or all) or the most
// recent, bounded by p.Limit.
func TraceSnaps(tr *trace.Tracer, p OpsParams) []trace.TraceSnap {
	if !p.Slow {
		return tr.Recent(p.Limit)
	}
	snaps := tr.Slowest(p.Verb)
	if p.Limit > 0 && len(snaps) > p.Limit {
		snaps = snaps[:p.Limit]
	}
	return snaps
}

// debugOps renders the traces p selects; a nil tracer lists nothing.
func (s *Server) debugOps(_ context.Context, p OpsParams) (OpsResult, error) {
	res := OpsResult{Traces: []TraceJSON{}}
	for _, ts := range TraceSnaps(s.Tracer, p) {
		res.Traces = append(res.Traces, SnapToJSON(ts))
	}
	return res, nil
}

func (s *Server) debugTrace(_ context.Context, p TraceGetParams) (TraceJSON, error) {
	id, ok := trace.ParseTraceID(p.ID)
	if !ok {
		return TraceJSON{}, errors.New("debug.trace: bad trace id (want 32 hex digits)")
	}
	ts, ok := s.Tracer.Lookup(id)
	if !ok {
		return TraceJSON{}, errors.New("debug.trace: trace not found (evicted or never recorded)")
	}
	return SnapToJSON(ts), nil
}

func (s *Server) debugFlightrec(context.Context, struct{}) (FlightRecResult, error) {
	res := FlightRecResult{Events: []FlightEventJSON{}}
	for _, ev := range s.Flight.Events() {
		res.Events = append(res.Events, EventToJSON(ev))
	}
	return res, nil
}
