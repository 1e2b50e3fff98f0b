package fleet

import (
	"context"
	"log"
	"time"

	"p4runpro/internal/wire"
)

// RegisterWire attaches the fleet.* verbs to a wire server, making the
// fleet drivable by wire.Client's Fleet* methods and cmd/p4rpctl's fleet
// subcommands. Deploy and revoke thread the request context through, so
// a traced request's span tree extends into the fan-out.
func RegisterWire(s *wire.Server, f *Fleet) {
	wire.Handle(s, wire.MethodFleetDeploy, func(ctx context.Context, p wire.FleetDeployParams) ([]wire.FleetDeployResult, error) {
		return f.DeployCtx(ctx, p.Source, p.Replicas)
	})
	wire.Handle(s, wire.MethodFleetRevoke, func(ctx context.Context, p wire.FleetRevokeParams) (wire.FleetRevokeResult, error) {
		return f.RevokeCtx(ctx, p.Name)
	})
	wire.Handle(s, wire.MethodFleetPrograms, func(context.Context, struct{}) ([]wire.FleetProgramInfo, error) {
		return f.Programs(), nil
	})
	wire.Handle(s, wire.MethodFleetMembers, func(context.Context, struct{}) ([]wire.FleetMemberInfo, error) {
		return f.Members(), nil
	})
	wire.Handle(s, wire.MethodFleetUtilization, func(context.Context, struct{}) ([]wire.FleetUtilRow, error) {
		return f.Utilization(), nil
	})
	wire.Handle(s, wire.MethodFleetTop, func(context.Context, struct{}) (wire.TelemetryProgramsResult, error) {
		return f.Top(), nil
	})
	wire.Handle(s, wire.MethodFleetUpgrade, func(_ context.Context, p wire.FleetUpgradeParams) (wire.FleetUpgradeResult, error) {
		return f.Upgrade(p.Name, p.Source, UpgradeOptions{
			Canaries: p.Canaries, StageSize: p.StageSize,
			Soak:        time.Duration(p.SoakMs) * time.Millisecond,
			MaxDropRate: p.MaxDropRate, MinV2PPS: p.MinV2PPS,
			Retries: p.Retries, RetryBackoff: time.Duration(p.RetryBackoffMs) * time.Millisecond,
		})
	})
	wire.Handle(s, wire.MethodFleetMemRead, func(_ context.Context, p wire.FleetMemReadParams) (wire.FleetMemReadResult, error) {
		return f.MemRead(p.Program, p.Mem, p.Addr, p.Count, p.Agg)
	})
	wire.Handle(s, wire.MethodFleetOps, func(_ context.Context, p wire.OpsParams) (wire.OpsResult, error) {
		return f.Ops(p), nil
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
