package fleet

import (
	"context"
	"time"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/wire"
)

// Member is one member switch's control surface — every verb the fleet
// drives, ctx first so a fleet operation's trace reaches the member. The
// wire DTOs are the lingua franca, so a member daemon reached over TCP
// (Remote) and an in-process Controller (Local) look identical to
// placement, health checking, reconciliation and rollouts.
type Member interface {
	Deploy(ctx context.Context, source string) ([]wire.DeployResult, error)
	DeployBatch(ctx context.Context, sources []string, atomic bool) (wire.DeployBatchResult, error)
	Revoke(ctx context.Context, name string) (wire.RevokeResult, error)
	Programs(ctx context.Context) ([]wire.ProgramInfo, error)
	ReadMemory(ctx context.Context, program, mem string, addr, count uint32) ([]uint32, error)
	WriteMemory(ctx context.Context, program, mem string, addr, value uint32) error
	WriteMemoryBatch(ctx context.Context, program, mem string, writes []wire.MemWriteEntry) (int, error)
	Utilization(ctx context.Context) ([]wire.UtilizationRow, error)
	Status(ctx context.Context) (string, error)
	// TelemetryPrograms reports per-program windowed rates for the
	// fleet.top fan-in; a member that is not sweeping reports no rows.
	TelemetryPrograms(ctx context.Context) (wire.TelemetryProgramsResult, error)
	UpgradeStart(ctx context.Context, program, source string) (wire.UpgradeStatusResult, error)
	UpgradeCutover(ctx context.Context, program string, version int) (wire.UpgradeStatusResult, error)
	UpgradeCommit(ctx context.Context, program string) (wire.UpgradeStatusResult, error)
	UpgradeAbort(ctx context.Context, program string) (wire.UpgradeStatusResult, error)
	UpgradeStatus(ctx context.Context, program string) (wire.UpgradeStatusResult, error)
	// DebugOps lists the member's own traces, so the fleet can merge the
	// member-side halves of distributed traces into its view.
	DebugOps(ctx context.Context, p wire.OpsParams) (wire.OpsResult, error)
}

// TelemetrySource is what LocalMember needs from a sweep engine — the
// telemetry.Engine's Result method — declared locally so fleet does not
// import the telemetry package.
type TelemetrySource interface {
	Result() wire.TelemetryProgramsResult
}

// LocalMember adapts an in-process Controller to Member.
type LocalMember struct {
	CT *controlplane.Controller
	// Tel, when set, exposes the member's sweep engine for fleet.top
	// (cmd/p4rpd -fleet attaches one engine per member).
	Tel TelemetrySource
}

// Local wraps ct as a fleet member.
func Local(ct *controlplane.Controller) *LocalMember { return &LocalMember{CT: ct} }

var _ Member = (*LocalMember)(nil)

func (l *LocalMember) Deploy(ctx context.Context, source string) ([]wire.DeployResult, error) {
	reports, err := l.CT.DeployCtx(ctx, source)
	if err != nil {
		return nil, err
	}
	return wire.DeployResults(reports), nil
}

func (l *LocalMember) DeployBatch(ctx context.Context, sources []string, atomic bool) (wire.DeployBatchResult, error) {
	outcomes, err := l.CT.DeployAllCtx(ctx, sources, atomic)
	if err != nil {
		return wire.DeployBatchResult{}, err
	}
	return wire.DeployBatchResultOf(outcomes), nil
}

func (l *LocalMember) Revoke(ctx context.Context, name string) (wire.RevokeResult, error) {
	r, err := l.CT.RevokeCtx(ctx, name)
	return wire.RevokeResultOf(r), err
}

func (l *LocalMember) Programs(context.Context) ([]wire.ProgramInfo, error) {
	return wire.ProgramInfos(l.CT.Programs()), nil
}

func (l *LocalMember) ReadMemory(_ context.Context, program, mem string, addr, count uint32) ([]uint32, error) {
	if count == 0 {
		count = 1
	}
	return l.CT.ReadMemoryRange(program, mem, addr, count)
}

func (l *LocalMember) WriteMemory(ctx context.Context, program, mem string, addr, value uint32) error {
	return l.CT.WriteMemoryCtx(ctx, program, mem, addr, value)
}

func (l *LocalMember) WriteMemoryBatch(ctx context.Context, program, mem string, writes []wire.MemWriteEntry) (int, error) {
	return l.CT.WriteMemoryBatchCtx(ctx, program, mem, wire.MemWrites(writes))
}

func (l *LocalMember) Utilization(context.Context) ([]wire.UtilizationRow, error) {
	return wire.UtilizationRows(l.CT.Utilization()), nil
}

func (l *LocalMember) Status(context.Context) (string, error) { return l.CT.String(), nil }

// TelemetryPrograms reports the local sweep engine's scrape. A member
// without an attached engine truthfully reports zero rows rather than an
// error — the member is healthy, it just isn't sweeping.
func (l *LocalMember) TelemetryPrograms(context.Context) (wire.TelemetryProgramsResult, error) {
	if l.Tel == nil {
		return wire.TelemetryProgramsResult{}, nil
	}
	return l.Tel.Result(), nil
}

func (l *LocalMember) UpgradeStart(ctx context.Context, program, source string) (wire.UpgradeStatusResult, error) {
	st, err := l.CT.UpgradePrepareCtx(ctx, program, source)
	return wire.UpgradeStatusResultOf(st, l.CT.SW), err
}

func (l *LocalMember) UpgradeCutover(ctx context.Context, program string, version int) (wire.UpgradeStatusResult, error) {
	st, err := l.CT.UpgradeCutoverCtx(ctx, program, version)
	return wire.UpgradeStatusResultOf(st, l.CT.SW), err
}

func (l *LocalMember) UpgradeCommit(ctx context.Context, program string) (wire.UpgradeStatusResult, error) {
	st, err := l.CT.UpgradeCommitCtx(ctx, program)
	return wire.UpgradeStatusResultOf(st, l.CT.SW), err
}

func (l *LocalMember) UpgradeAbort(ctx context.Context, program string) (wire.UpgradeStatusResult, error) {
	st, err := l.CT.UpgradeAbortCtx(ctx, program)
	return wire.UpgradeStatusResultOf(st, l.CT.SW), err
}

func (l *LocalMember) UpgradeStatus(_ context.Context, program string) (wire.UpgradeStatusResult, error) {
	st, err := l.CT.UpgradeStatus(program)
	return wire.UpgradeStatusResultOf(st, l.CT.SW), err
}

// DebugOps lists the local controller's traces, so the fleet aggregator
// merges a local member's trace halves exactly as it does a remote one's.
func (l *LocalMember) DebugOps(_ context.Context, p wire.OpsParams) (wire.OpsResult, error) {
	tr, _ := l.CT.Tracing()
	return wire.OpsResultOf(tr, p), nil
}

// Remote adapts a connection to a member daemon to Member: each verb is
// one typed call over the client's single round-trip entry, so ctx's trace
// travels in every request.
func Remote(c *wire.Client) Member { return remoteMember{c} }

type remoteMember struct{ c *wire.Client }

func (r remoteMember) Deploy(ctx context.Context, source string) ([]wire.DeployResult, error) {
	return r.c.DeployCtx(ctx, source)
}

func (r remoteMember) DeployBatch(ctx context.Context, sources []string, atomic bool) (wire.DeployBatchResult, error) {
	return wire.Call[wire.DeployBatchResult](ctx, r.c, wire.MethodDeployBatch, wire.DeployBatchParams{Sources: sources, Atomic: atomic})
}

func (r remoteMember) Revoke(ctx context.Context, name string) (wire.RevokeResult, error) {
	return wire.Call[wire.RevokeResult](ctx, r.c, wire.MethodRevoke, wire.RevokeParams{Name: name})
}

func (r remoteMember) Programs(ctx context.Context) ([]wire.ProgramInfo, error) {
	return wire.Call[[]wire.ProgramInfo](ctx, r.c, wire.MethodPrograms, nil)
}

func (r remoteMember) ReadMemory(ctx context.Context, program, mem string, addr, count uint32) ([]uint32, error) {
	return wire.Call[[]uint32](ctx, r.c, wire.MethodMemRead, wire.MemReadParams{Program: program, Mem: mem, Addr: addr, Count: count})
}

func (r remoteMember) WriteMemory(ctx context.Context, program, mem string, addr, value uint32) error {
	_, err := r.c.Do(ctx, wire.MethodMemWrite, wire.MemWriteParams{Program: program, Mem: mem, Addr: addr, Value: value}, nil)
	return err
}

func (r remoteMember) WriteMemoryBatch(ctx context.Context, program, mem string, writes []wire.MemWriteEntry) (int, error) {
	var out wire.MemWriteBatchResult
	_, err := r.c.Do(ctx, wire.MethodMemWriteBatch,
		wire.MemWriteBatchParams{Program: program, Mem: mem, Binary: true}, &out, wire.EncodeWritePairs(writes))
	return out.Written, err
}

func (r remoteMember) Utilization(ctx context.Context) ([]wire.UtilizationRow, error) {
	return wire.Call[[]wire.UtilizationRow](ctx, r.c, wire.MethodUtilization, nil)
}

func (r remoteMember) Status(ctx context.Context) (string, error) {
	return wire.Call[string](ctx, r.c, wire.MethodStatus, nil)
}

func (r remoteMember) TelemetryPrograms(ctx context.Context) (wire.TelemetryProgramsResult, error) {
	return wire.Call[wire.TelemetryProgramsResult](ctx, r.c, wire.MethodTelemetryPrograms, nil)
}

func (r remoteMember) UpgradeStart(ctx context.Context, program, source string) (wire.UpgradeStatusResult, error) {
	return wire.Call[wire.UpgradeStatusResult](ctx, r.c, wire.MethodUpgradeStart, wire.UpgradeStartParams{Program: program, Source: source})
}

func (r remoteMember) UpgradeCutover(ctx context.Context, program string, version int) (wire.UpgradeStatusResult, error) {
	return wire.Call[wire.UpgradeStatusResult](ctx, r.c, wire.MethodUpgradeCutover, wire.UpgradeCutoverParams{Program: program, Version: version})
}

func (r remoteMember) UpgradeCommit(ctx context.Context, program string) (wire.UpgradeStatusResult, error) {
	return wire.Call[wire.UpgradeStatusResult](ctx, r.c, wire.MethodUpgradeCommit, wire.UpgradeNameParams{Program: program})
}

func (r remoteMember) UpgradeAbort(ctx context.Context, program string) (wire.UpgradeStatusResult, error) {
	return wire.Call[wire.UpgradeStatusResult](ctx, r.c, wire.MethodUpgradeAbort, wire.UpgradeNameParams{Program: program})
}

func (r remoteMember) UpgradeStatus(ctx context.Context, program string) (wire.UpgradeStatusResult, error) {
	return wire.Call[wire.UpgradeStatusResult](ctx, r.c, wire.MethodUpgradeStatus, wire.UpgradeNameParams{Program: program})
}

func (r remoteMember) DebugOps(ctx context.Context, p wire.OpsParams) (wire.OpsResult, error) {
	return wire.Call[wire.OpsResult](ctx, r.c, wire.MethodDebugOps, p)
}

// DialMember connects to a member daemon with the client tuning the fleet
// wants: bounded per-call deadlines (a hung member must not stall probes
// or fan-outs) and reconnect-with-backoff retries for transient failures.
func DialMember(addr string) (Member, error) {
	c, err := wire.Dial(addr,
		wire.WithDialTimeout(2*time.Second),
		wire.WithCallTimeout(5*time.Second),
		wire.WithRetry(3, 50*time.Millisecond),
	)
	if err != nil {
		return nil, err
	}
	return Remote(c), nil
}
