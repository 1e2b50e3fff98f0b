package controlplane

import (
	"strconv"
	"time"

	"p4runpro/internal/obs"
	"p4runpro/internal/resource"
	"p4runpro/internal/rmt"
	"p4runpro/internal/traffic"
)

// initMetrics builds the controller's registry: latency histograms and
// outcome counters owned here, plus scrape-time collectors over the
// switch's packet-path atomics and the resource manager's occupancy state.
// Every metric name exported here is documented in docs/ARCHITECTURE.md.
func (ct *Controller) initMetrics() {
	reg := obs.NewRegistry()
	ct.Obs = reg
	ct.Compiler.SetObserver(reg)

	ct.mDeployNs = reg.Histogram("p4runpro_deploy_duration_ns",
		"End-to-end Deploy latency (parse through install) in nanoseconds.")
	ct.mRevokeNs = reg.Histogram("p4runpro_revoke_duration_ns",
		"End-to-end Revoke latency in nanoseconds.")
	ct.mMemOpNs = reg.Histogram("p4runpro_memop_duration_ns",
		"Control-plane memory read/write latency in nanoseconds.")
	ct.cDeployOK = reg.Counter("p4runpro_deploys_total", "Deploy operations by outcome.", obs.L("outcome", "ok"))
	ct.cDeployErr = reg.Counter("p4runpro_deploys_total", "Deploy operations by outcome.", obs.L("outcome", "error"))
	ct.cRevokeOK = reg.Counter("p4runpro_revokes_total", "Revoke operations by outcome.", obs.L("outcome", "ok"))
	ct.cRevokeErr = reg.Counter("p4runpro_revokes_total", "Revoke operations by outcome.", obs.L("outcome", "error"))
	ct.cMemOpOK = reg.Counter("p4runpro_memops_total", "Memory operations by outcome.", obs.L("outcome", "ok"))
	ct.cMemOpErr = reg.Counter("p4runpro_memops_total", "Memory operations by outcome.", obs.L("outcome", "error"))
	ct.cEntries = reg.Counter("p4runpro_entries_installed_total",
		"Table entries installed by successful deploys.")

	ct.cUpgradeStarted = reg.Counter("p4runpro_upgrades_started_total",
		"Versioned upgrades prepared (v2 linked alongside v1).")
	ct.cUpgradeCommitted = reg.Counter("p4runpro_upgrades_committed_total",
		"Versioned upgrades committed (v2 took over the program name).")
	ct.cUpgradeRolledBack = reg.Counter("p4runpro_upgrades_rolled_back_total",
		"Versioned upgrades aborted (v2 revoked, v1 kept serving).")
	ct.mUpgradeCutoverNs = reg.Histogram("p4runpro_upgrade_cutover_ns",
		"Epoch-publication latency of upgrade cutovers, in nanoseconds.")

	reg.GaugeFunc("p4runpro_programs_linked", "Programs currently linked.",
		func() float64 { return float64(len(ct.Compiler.Programs())) })
	reg.GaugeFunc("p4runpro_memory_utilization_ratio", "Chip-wide RPB memory utilization [0,1].",
		func() float64 { mem, _ := ct.Compiler.Mgr.TotalUtilization(); return mem })
	reg.GaugeFunc("p4runpro_entry_utilization_ratio", "Chip-wide RPB entry utilization [0,1].",
		func() float64 { _, ent := ct.Compiler.Mgr.TotalUtilization(); return ent })

	// Per-RPB occupancy gauges, read from the resource manager at scrape.
	cfg := ct.SW.Config()
	reg.Gauge("p4runpro_rpb_entries_capacity", "Entry capacity of each RPB.").Set(float64(cfg.TableCapacity))
	reg.Gauge("p4runpro_rpb_memory_capacity_words", "Memory capacity of each RPB in 32-bit words.").Set(float64(cfg.MemoryWords))
	for i := 1; i <= ct.Plane.M; i++ {
		rpb := resource.RPBID(i)
		lbl := obs.L("rpb", strconv.Itoa(i))
		reg.GaugeFunc("p4runpro_rpb_entries_used", "Table entries reserved per RPB.",
			func() float64 { return float64(cfg.TableCapacity - ct.Compiler.Mgr.FreeEntries(rpb)) }, lbl)
		reg.GaugeFunc("p4runpro_rpb_memory_used_words", "Memory words in use (allocated or locked) per RPB.",
			func() float64 { return float64(cfg.MemoryWords) - float64(ct.Compiler.Mgr.FreeMemory(rpb)) }, lbl)
	}

	// Packet-path counters, read from the switch's atomics at scrape so the
	// hot path never touches the registry.
	reg.CounterFunc("p4runpro_rmt_packets_total", "Packets injected into the pipeline.",
		func() uint64 { return ct.SW.Metrics().Packets })
	reg.CounterFunc("p4runpro_rmt_passes_total", "Pipeline passes consumed (>= packets; extra passes are recirculations).",
		func() uint64 { return ct.SW.Metrics().Passes })
	reg.CounterFunc("p4runpro_rmt_recirculations_total", "Packets recirculated through the loopback port.",
		func() uint64 { return ct.SW.Metrics().Recircs })
	reg.CounterFunc("p4runpro_rmt_salu_ops_total", "Stateful-ALU memory accesses on the packet path.",
		func() uint64 { return ct.SW.Metrics().SALUOps })
	for v := rmt.VerdictForwarded; v <= rmt.VerdictNextHop; v++ {
		v := v
		reg.CounterFunc("p4runpro_rmt_verdicts_total", "Final packet dispositions by verdict.",
			func() uint64 { return ct.SW.Metrics().Verdicts[v] }, obs.L("verdict", v.String()))
	}
	// Replay-engine telemetry (worker count, throughput) from the traffic
	// package's process-wide atomics.
	traffic.RegisterReplayMetrics(reg)

	for g := rmt.Ingress; g <= rmt.Egress; g++ {
		g := g
		base := 0
		if g == rmt.Egress {
			base = cfg.IngressStages
		}
		for st := 0; st < cfg.StageCount(g); st++ {
			idx := base + st
			reg.CounterFunc("p4runpro_rmt_stage_lookups_total", "Match-action table lookups per stage.",
				func() uint64 { return ct.SW.StageLookupCount(idx) },
				obs.L("gress", g.String()), obs.L("stage", strconv.Itoa(st)))
		}
	}
}

// observeOp records one control-plane operation's latency and outcome.
func observeOp(h *obs.Histogram, ok, fail *obs.Counter, start time.Time, err error) {
	h.ObserveDuration(time.Since(start))
	if err != nil {
		fail.Inc()
	} else {
		ok.Inc()
	}
}
