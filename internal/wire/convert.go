package wire

import (
	"strconv"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/core"
	"p4runpro/internal/resource"
	"p4runpro/internal/rmt"
	"p4runpro/internal/upgrade"
)

// Controller → DTO conversions for the single-switch verb table. Every
// member shape (TCP or in-process) answers through that table, so the
// field mapping lives here once.

// deployResults converts a blob's per-program deploy reports.
func deployResults(reports []controlplane.DeployReport) []DeployResult {
	out := make([]DeployResult, 0, len(reports))
	for _, r := range reports {
		out = append(out, DeployResult{
			Program: r.Program, ProgramID: r.ProgramID, Entries: r.Entries,
			AllocTime: r.AllocTime, UpdateDelay: r.UpdateDelay, Total: r.Total,
		})
	}
	return out
}

// planResults converts a source's planned, unlinked programs.
func planResults(lps []*core.LinkedProgram) []PlanResult {
	out := make([]PlanResult, 0, len(lps))
	for _, lp := range lps {
		r := PlanResult{Program: lp.Name, Passes: lp.Alloc.MaxPass() + 1,
			Entries: lp.Stats.EntryCount, MemWords: lp.Stats.MemWords}
		for _, pl := range lp.Alloc.Placements {
			row := PlanPlacement{Depth: pl.Depth, Logical: pl.Logical, RPB: int(pl.RPB), Pass: pl.Pass}
			for _, it := range lp.TP.Depths[pl.Depth-1].Items {
				row.Primitives = append(row.Primitives, "b"+strconv.Itoa(it.BranchID)+":"+it.Prim.String())
			}
			r.Placements = append(r.Placements, row)
		}
		blocks := lp.Blocks()
		for _, md := range lp.TP.Memories {
			b := blocks[md.Name]
			r.Blocks = append(r.Blocks, PlanBlock{Mem: b.Name, RPB: int(b.RPB), Start: b.Start, Size: b.Size})
		}
		out = append(out, r)
	}
	return out
}

// deployBatchResultOf converts a batch's per-blob outcomes, counting the
// blobs that linked.
func deployBatchResultOf(outcomes []controlplane.DeployOutcome) DeployBatchResult {
	res := DeployBatchResult{Items: make([]DeployBatchItem, 0, len(outcomes))}
	for _, oc := range outcomes {
		item := DeployBatchItem{}
		if oc.Err != nil {
			item.Error = oc.Err.Error()
		} else {
			res.Deployed++
			item.Programs = deployResults(oc.Reports)
		}
		res.Items = append(res.Items, item)
	}
	return res
}

// revokeResultOf converts a revoke report.
func revokeResultOf(r controlplane.RevokeReport) RevokeResult {
	return RevokeResult{Entries: r.Entries, MemReset: r.MemReset, UpdateDelay: r.UpdateDelay}
}

// programInfos converts a program listing.
func programInfos(infos []controlplane.ProgramInfo) []ProgramInfo {
	out := make([]ProgramInfo, 0, len(infos))
	for _, i := range infos {
		out = append(out, ProgramInfo{
			Name: i.Name, ProgramID: i.ProgramID, Depths: i.Depths,
			Entries: i.Entries, MemWords: i.MemWords, Passes: i.Passes,
			Hits: i.Hits,
		})
	}
	return out
}

// utilizationRows converts per-RPB utilization.
func utilizationRows(us []resource.Utilization) []UtilizationRow {
	var out []UtilizationRow
	for _, u := range us {
		out = append(out, UtilizationRow{
			RPB: int(u.RPB), EntriesUsed: u.EntriesUsed, EntriesCap: u.EntriesCap,
			MemUsed: u.MemUsed, MemCap: u.MemCap,
			MemFrac: float64(u.MemUsed) / float64(u.MemCap),
		})
	}
	return out
}

// upgradeStatusResultOf converts a session status, stamping in the
// switch-wide traffic counters the fleet's health gate samples.
func upgradeStatusResultOf(st upgrade.Status, sw *rmt.Switch) UpgradeStatusResult {
	m := sw.Metrics()
	return UpgradeStatusResult{
		Program: st.Program, V2Name: st.V2Name, State: st.State,
		ActiveVersion: st.ActiveVersion, V1PID: st.V1PID, V2PID: st.V2PID,
		V1Packets: st.V1Packets, V2Packets: st.V2Packets,
		MigratedWords: st.MigratedWords, CutoverNs: st.CutoverNs,
		SwitchPackets: m.Packets, SwitchDrops: m.Verdicts[rmt.VerdictDropped],
	}
}

// memWrites converts a memory batch's entries to the controller's form.
func memWrites(entries []MemWriteEntry) []controlplane.MemWrite {
	writes := make([]controlplane.MemWrite, len(entries))
	for i, e := range entries {
		writes[i] = controlplane.MemWrite{Addr: e.Addr, Value: e.Value}
	}
	return writes
}
