// Tracing hooks for the control plane. Every mutating verb takes a ctx
// (or has a Ctx variant) whose operation (see do) attributes where its
// latency went — lock wait, journal commit, apply — as child spans of the
// caller's span (normally the wire server's srv.<verb> span), and records
// a flight-recorder event. The remaining no-ctx methods delegate with a
// background context, so library users and crash replay pay only a few
// clock reads when tracing is off.
package controlplane

import "p4runpro/internal/obs/trace"

// SetTracing attaches a tracer and flight recorder to the controller.
// Either may be nil. Call before serving traffic; the fields are read
// without synchronization by every mutating operation.
func (ct *Controller) SetTracing(tr *trace.Tracer, fr *trace.FlightRecorder) {
	ct.tracer = tr
	ct.flight = fr
}

// Tracing returns the controller's tracer and flight recorder (either may
// be nil), so servers and fleets layered above can share them.
func (ct *Controller) Tracing() (*trace.Tracer, *trace.FlightRecorder) {
	return ct.tracer, ct.flight
}
