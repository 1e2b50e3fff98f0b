package fleet

import (
	"context"
	"log"
	"time"

	"p4runpro/internal/wire"
)

// RegisterWire attaches the fleet.* verbs to a wire server, making the
// fleet drivable by wire.Client's Fleet* methods and cmd/p4rpctl's fleet
// subcommands. Every verb runs under the request context, so a traced
// request's span tree extends into the member fan-out.
func RegisterWire(s *wire.Server, f *Fleet) {
	wire.Handle(s, wire.MethodFleetDeploy, func(ctx context.Context, p wire.FleetDeployParams) ([]wire.FleetDeployResult, error) {
		return f.Deploy(ctx, p.Source, p.Replicas)
	})
	wire.Handle(s, wire.MethodFleetRevoke, func(ctx context.Context, p wire.FleetRevokeParams) (wire.FleetRevokeResult, error) {
		return f.Revoke(ctx, p.Name)
	})
	wire.Handle(s, wire.MethodFleetPrograms, func(ctx context.Context, _ struct{}) ([]wire.FleetProgramInfo, error) {
		return f.Programs(ctx), nil
	})
	wire.Handle(s, wire.MethodFleetMembers, func(context.Context, struct{}) ([]wire.FleetMemberInfo, error) {
		return f.Members(), nil
	})
	wire.Handle(s, wire.MethodFleetUtilization, func(ctx context.Context, _ struct{}) ([]wire.FleetUtilRow, error) {
		return f.Utilization(ctx), nil
	})
	wire.Handle(s, wire.MethodFleetTop, func(ctx context.Context, _ struct{}) (wire.TelemetryProgramsResult, error) {
		return f.Top(ctx), nil
	})
	wire.Handle(s, wire.MethodFleetUpgrade, func(ctx context.Context, p wire.FleetUpgradeParams) (wire.FleetUpgradeResult, error) {
		return f.Upgrade(ctx, p.Name, p.Source, UpgradeOptions{
			Canaries: p.Canaries, StageSize: p.StageSize,
			Soak:        time.Duration(p.SoakMs) * time.Millisecond,
			MaxDropRate: p.MaxDropRate, MinV2PPS: p.MinV2PPS,
		})
	})
	wire.Handle(s, wire.MethodFleetMemRead, func(ctx context.Context, p wire.FleetMemReadParams) (wire.FleetMemReadResult, error) {
		return f.MemRead(ctx, p.Program, p.Mem, p.Addr, p.Count, p.Agg)
	})
	wire.Handle(s, wire.MethodFleetOps, func(ctx context.Context, p wire.OpsParams) (wire.OpsResult, error) {
		return f.Ops(ctx, p), nil
	})
	wire.Handle(s, wire.MethodStatus, func(context.Context, struct{}) (string, error) {
		return f.String(), nil
	})
}

// NewWireServer builds a bare wire server (no single-switch verbs)
// serving this fleet's verbs and its metrics registry — what
// cmd/p4rpd -fleet listens with.
func NewWireServer(f *Fleet, logger *log.Logger) *wire.Server {
	s := wire.NewBareServer(f.Obs, logger)
	RegisterWire(s, f)
	return s
}
