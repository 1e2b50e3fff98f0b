package telemetry

import (
	"context"

	"p4runpro/internal/wire"
)

// RegisterWire attaches the telemetry.* verbs to a wire server, making the
// sweep engine drivable by wire.Client's Telemetry* methods and
// cmd/p4rpctl's top/trace subcommands. Mirrors fleet.RegisterWire: the
// handlers attach through wire.Handle so wire never imports telemetry.
func RegisterWire(s *wire.Server, e *Engine) {
	wire.Handle(s, wire.MethodTelemetryPrograms, func(context.Context, struct{}) (wire.TelemetryProgramsResult, error) {
		return e.Result(), nil
	})
	wire.Handle(s, wire.MethodTelemetryPostcards, func(_ context.Context, p wire.TelemetryPostcardsParams) (wire.TelemetryPostcardsResult, error) {
		return e.Postcards(p.Owner, p.Limit), nil
	})
}
