package wire

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/pkt"
)

// handler serves one verb in the server's dispatch table: raw params and
// the request's binary frames in, a result to marshal and the response's
// binary frames out.
type handler func(ctx context.Context, params json.RawMessage, frames [][]byte) (any, [][]byte, error)

// Handle registers method on s with a typed handler: the params are
// unmarshalled into P once, here (absent params leave P zero), and ctx
// carries the request's trace span. This is how packages that own verbs
// (fleet, telemetry) attach them without wire importing those packages.
// It panics on a duplicate registration.
func Handle[P, R any](s *Server, method string, h func(context.Context, P) (R, error)) {
	s.register(method, typed(h))
}

// HandleFramed is Handle for the bulk verbs, whose requests may carry
// binary frames and whose responses may answer with them.
func HandleFramed[P, R any](s *Server, method string, h func(context.Context, P, [][]byte) (R, [][]byte, error)) {
	s.register(method, typedFramed(h))
}

func typed[P, R any](h func(context.Context, P) (R, error)) handler {
	return typedFramed(func(ctx context.Context, p P, _ [][]byte) (R, [][]byte, error) {
		r, err := h(ctx, p)
		return r, nil, err
	})
}

func typedFramed[P, R any](h func(context.Context, P, [][]byte) (R, [][]byte, error)) handler {
	return func(ctx context.Context, raw json.RawMessage, frames [][]byte) (any, [][]byte, error) {
		var p P
		// Verbs without parameters (P = struct{}) ignore whatever was sent.
		if _, none := any(p).(struct{}); !none && len(raw) > 0 {
			if err := json.Unmarshal(raw, &p); err != nil {
				return nil, nil, err
			}
		}
		return h(ctx, p, frames)
	}
}

// switchVerbs is the single-switch registration table: every verb that
// needs a Controller, bound to one by NewServer. A server without a
// controller (fleet mode) registers none of them and answers exactly
// these names with a pointer to a single-switch daemon — the table is
// also the list.
var switchVerbs = map[string]func(*controlplane.Controller) handler{
	MethodDeploy: verb(func(ctx context.Context, ct *controlplane.Controller, p DeployParams) ([]DeployResult, error) {
		reports, err := ct.DeployCtx(ctx, p.Source)
		if err != nil {
			return nil, err
		}
		return deployResults(reports), nil
	}),
	MethodRevoke: verb(func(ctx context.Context, ct *controlplane.Controller, p RevokeParams) (RevokeResult, error) {
		r, err := ct.RevokeCtx(ctx, p.Name)
		return revokeResultOf(r), err
	}),
	MethodPrograms: verb(func(_ context.Context, ct *controlplane.Controller, _ struct{}) ([]ProgramInfo, error) {
		return programInfos(ct.Programs()), nil
	}),
	MethodMemRead: verb(func(_ context.Context, ct *controlplane.Controller, p MemReadParams) ([]uint32, error) {
		if p.Count == 0 {
			p.Count = 1
		}
		return ct.ReadMemoryRange(p.Program, p.Mem, p.Addr, p.Count)
	}),
	MethodMemWrite: verb(func(ctx context.Context, ct *controlplane.Controller, p MemWriteParams) (bool, error) {
		return true, ct.WriteMemoryCtx(ctx, p.Program, p.Mem, p.Addr, p.Value)
	}),
	MethodUtilization: verb(func(_ context.Context, ct *controlplane.Controller, _ struct{}) ([]UtilizationRow, error) {
		return utilizationRows(ct.Utilization()), nil
	}),
	MethodInject: verb(func(_ context.Context, ct *controlplane.Controller, p InjectParams) (InjectResult, error) {
		frame, err := hex.DecodeString(p.FrameHex)
		if err != nil {
			return InjectResult{}, fmt.Errorf("bad frame hex: %w", err)
		}
		pk, err := pkt.Parse(frame)
		if err != nil {
			return InjectResult{}, err
		}
		res := ct.SW.Inject(pk, p.Port)
		out := InjectResult{Verdict: res.Verdict.String(), OutPort: res.OutPort, Passes: res.Passes}
		if res.Packet != nil {
			out.FrameHex = hex.EncodeToString(res.Packet.Marshal())
		}
		return out, nil
	}),
	MethodStatus: verb(func(_ context.Context, ct *controlplane.Controller, _ struct{}) (string, error) {
		return ct.String(), nil
	}),
	MethodAddCases: verb(func(ctx context.Context, ct *controlplane.Controller, p AddCasesParams) (AddCasesResult, error) {
		added, delay, err := ct.AddCasesCtx(ctx, p.Program, p.BranchDepth, p.Source)
		out := AddCasesResult{UpdateDelay: delay}
		for _, a := range added {
			out.BranchIDs = append(out.BranchIDs, a.BranchID)
			out.Entries += a.Entries
		}
		return out, err
	}),
	MethodRemoveCase: verb(func(ctx context.Context, ct *controlplane.Controller, p RemoveCaseParams) (bool, error) {
		return true, ct.RemoveCaseCtx(ctx, p.Program, p.BranchID)
	}),
	MethodMcastSet: verb(func(ctx context.Context, ct *controlplane.Controller, p McastSetParams) (bool, error) {
		return true, ct.SetMulticastGroupCtx(ctx, p.Group, p.Ports)
	}),
	MethodSnapshot: verb(func(_ context.Context, ct *controlplane.Controller, _ struct{}) (SnapshotResult, error) {
		if err := ct.Snapshot(); err != nil {
			return SnapshotResult{}, err
		}
		j := ct.Journal()
		return SnapshotResult{WalDir: j.Dir(), SegmentBytes: j.SegmentBytes()}, nil
	}),
	MethodUpgradeStart: verb(func(ctx context.Context, ct *controlplane.Controller, p UpgradeStartParams) (UpgradeStatusResult, error) {
		st, err := ct.UpgradePrepareCtx(ctx, p.Program, p.Source)
		return upgradeStatusResultOf(st, ct.SW), err
	}),
	MethodUpgradeCutover: verb(func(ctx context.Context, ct *controlplane.Controller, p UpgradeCutoverParams) (UpgradeStatusResult, error) {
		st, err := ct.UpgradeCutoverCtx(ctx, p.Program, p.Version)
		return upgradeStatusResultOf(st, ct.SW), err
	}),
	MethodUpgradeCommit: verb(func(ctx context.Context, ct *controlplane.Controller, p UpgradeNameParams) (UpgradeStatusResult, error) {
		st, err := ct.UpgradeCommitCtx(ctx, p.Program)
		return upgradeStatusResultOf(st, ct.SW), err
	}),
	MethodUpgradeAbort: verb(func(ctx context.Context, ct *controlplane.Controller, p UpgradeNameParams) (UpgradeStatusResult, error) {
		st, err := ct.UpgradeAbortCtx(ctx, p.Program)
		return upgradeStatusResultOf(st, ct.SW), err
	}),
	MethodUpgradeStatus: verb(func(_ context.Context, ct *controlplane.Controller, p UpgradeNameParams) (UpgradeStatusResult, error) {
		st, err := ct.UpgradeStatus(p.Program)
		return upgradeStatusResultOf(st, ct.SW), err
	}),

	// The bulk verbs: many programs or many memory words per request,
	// applied under one controller lock acquisition and one journal group.
	MethodDeployBatch: verb(func(ctx context.Context, ct *controlplane.Controller, p DeployBatchParams) (DeployBatchResult, error) {
		outcomes, err := ct.DeployAllCtx(ctx, p.Sources, p.Atomic)
		if err != nil {
			return DeployBatchResult{}, err
		}
		return deployBatchResultOf(outcomes), nil
	}),
	MethodMemWriteBatch: framedVerb(func(ctx context.Context, ct *controlplane.Controller, p MemWriteBatchParams, frames [][]byte) (MemWriteBatchResult, [][]byte, error) {
		entries := p.Writes
		if p.Binary {
			if len(frames) != 1 {
				return MemWriteBatchResult{}, nil, fmt.Errorf("mem.writebatch: binary mode wants 1 frame, got %d", len(frames))
			}
			var err error
			if entries, err = DecodeWritePairs(frames[0]); err != nil {
				return MemWriteBatchResult{}, nil, err
			}
		}
		n, err := ct.WriteMemoryBatchCtx(ctx, p.Program, p.Mem, memWrites(entries))
		return MemWriteBatchResult{Written: n}, nil, err
	}),
	// mem.readstream snapshots a large memory range and chunks it into
	// binary response frames.
	MethodMemReadStream: framedVerb(func(_ context.Context, ct *controlplane.Controller, p MemReadStreamParams, _ [][]byte) (MemReadStreamResult, [][]byte, error) {
		if p.Count == 0 {
			p.Count = 1
		}
		chunk := p.ChunkWords
		if chunk == 0 {
			chunk = 16384 // 64KB frames
		}
		chunks := (uint64(p.Count) + uint64(chunk) - 1) / uint64(chunk)
		if chunks > MaxFramesPerMessage {
			return MemReadStreamResult{}, nil, fmt.Errorf("%w: range needs %d frames (max %d; raise chunk_words)", ErrBadFrameCount, chunks, MaxFramesPerMessage)
		}
		vals, err := ct.ReadMemoryRange(p.Program, p.Mem, p.Addr, p.Count)
		if err != nil {
			return MemReadStreamResult{}, nil, err
		}
		frames := make([][]byte, 0, chunks)
		for off := 0; off < len(vals); off += int(chunk) {
			end := off + int(chunk)
			if end > len(vals) {
				end = len(vals)
			}
			frames = append(frames, EncodeU32s(vals[off:end]))
		}
		return MemReadStreamResult{Count: uint32(len(vals)), Chunks: len(frames), ChunkWords: chunk}, frames, nil
	}),
}

// verb and framedVerb adapt a typed single-switch handler, still waiting
// for its controller, to the table's form.
func verb[P, R any](h func(context.Context, *controlplane.Controller, P) (R, error)) func(*controlplane.Controller) handler {
	return func(ct *controlplane.Controller) handler {
		return typed(func(ctx context.Context, p P) (R, error) { return h(ctx, ct, p) })
	}
}

func framedVerb[P, R any](h func(context.Context, *controlplane.Controller, P, [][]byte) (R, [][]byte, error)) func(*controlplane.Controller) handler {
	return func(ct *controlplane.Controller) handler {
		return typedFramed(func(ctx context.Context, p P, frames [][]byte) (R, [][]byte, error) { return h(ctx, ct, p, frames) })
	}
}
