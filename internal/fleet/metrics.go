package fleet

import (
	"p4runpro/internal/obs"
)

// fleetMetrics are the counters the fleet's own operations record; the
// scrape-time member/unit gauges are registered as collectors. Every
// exported name is documented in docs/ARCHITECTURE.md.
type fleetMetrics struct {
	cProbeOK, cProbeErr    *obs.Counter
	cDownTransitions       *obs.Counter
	cFailovers             *obs.Counter
	cReconcileRuns         *obs.Counter
	cReconcileDeploys      *obs.Counter
	cReconcileRevokes      *obs.Counter
	cReconcileAdoptions    *obs.Counter
	cDeployOK, cDeployErr  *obs.Counter
	cRevokeOK, cRevokeErr  *obs.Counter
	cUpgStarted            *obs.Counter
	cUpgCommitted          *obs.Counter
	cUpgRolledBack         *obs.Counter
	hPlacementNs           *obs.Histogram
	hProbeNs, hReconcileNs *obs.Histogram
	hUpgCutoverNs          *obs.Histogram
}

func (f *Fleet) initMetrics() {
	reg := f.Obs
	f.m.cProbeOK = reg.Counter("p4runpro_fleet_probes_total", "Health probes by outcome.", obs.L("outcome", "ok"))
	f.m.cProbeErr = reg.Counter("p4runpro_fleet_probes_total", "Health probes by outcome.", obs.L("outcome", "error"))
	f.m.cDownTransitions = reg.Counter("p4runpro_fleet_member_down_transitions_total",
		"Members marked down by the health checker.")
	f.m.cFailovers = reg.Counter("p4runpro_fleet_failovers_total",
		"Unit replicas dropped from down members and queued for re-placement.")
	f.m.cReconcileRuns = reg.Counter("p4runpro_fleet_reconcile_runs_total", "Reconcile passes executed.")
	f.m.cReconcileDeploys = reg.Counter("p4runpro_fleet_reconcile_actions_total",
		"Corrective actions taken by reconciliation.", obs.L("action", "deploy"))
	f.m.cReconcileRevokes = reg.Counter("p4runpro_fleet_reconcile_actions_total",
		"Corrective actions taken by reconciliation.", obs.L("action", "revoke"))
	f.m.cReconcileAdoptions = reg.Counter("p4runpro_fleet_reconcile_actions_total",
		"Corrective actions taken by reconciliation.", obs.L("action", "adopt"))
	f.m.cDeployOK = reg.Counter("p4runpro_fleet_deploys_total", "Fleet deploy calls by outcome.", obs.L("outcome", "ok"))
	f.m.cDeployErr = reg.Counter("p4runpro_fleet_deploys_total", "Fleet deploy calls by outcome.", obs.L("outcome", "error"))
	f.m.cRevokeOK = reg.Counter("p4runpro_fleet_revokes_total", "Fleet revoke calls by outcome.", obs.L("outcome", "ok"))
	f.m.cRevokeErr = reg.Counter("p4runpro_fleet_revokes_total", "Fleet revoke calls by outcome.", obs.L("outcome", "error"))
	f.m.cUpgStarted = reg.Counter("p4runpro_fleet_upgrades_started_total",
		"Rolling upgrades started (v2 prepared on the unit's members).")
	f.m.cUpgCommitted = reg.Counter("p4runpro_fleet_upgrades_committed_total",
		"Rolling upgrades that committed v2 on at least one member.")
	f.m.cUpgRolledBack = reg.Counter("p4runpro_fleet_upgrades_rolled_back_total",
		"Rolling upgrades rolled back to v1 (health-gate regression or no member committed).")
	f.m.hUpgCutoverNs = reg.Histogram("p4runpro_fleet_upgrade_cutover_ns",
		"Per-member cutover latency during rolling upgrades, in nanoseconds.")
	f.m.hPlacementNs = reg.Histogram("p4runpro_fleet_placement_duration_ns",
		"Fleet deploy latency (member plans through member installs) in nanoseconds.")
	f.m.hProbeNs = reg.Histogram("p4runpro_fleet_probe_duration_ns", "Health probe latency in nanoseconds.")
	f.m.hReconcileNs = reg.Histogram("p4runpro_fleet_reconcile_duration_ns", "Reconcile pass latency in nanoseconds.")

	reg.GaugeFunc("p4runpro_fleet_units", "Deployment units in the desired-state store.",
		func() float64 { return float64(len(f.store.List())) })
	for _, st := range []State{Healthy, Suspect, Down} {
		st := st
		reg.GaugeFunc("p4runpro_fleet_members", "Members by health state.",
			func() float64 {
				f.mu.Lock()
				defer f.mu.Unlock()
				n := 0
				for _, m := range f.members {
					if m.state == st {
						n++
					}
				}
				return float64(n)
			}, obs.L("state", st.String()))
	}
}

// registerMemberMetrics adds per-member scrape-time gauges: liveness
// (1 healthy, 0.5 suspect, 0 down) and chip-wide occupancy fractions
// from the last utilization probe.
func (f *Fleet) registerMemberMetrics(name string) {
	lbl := obs.L("member", name)
	f.Obs.GaugeFunc("p4runpro_fleet_member_up", "Member liveness: 1 healthy, 0.5 suspect, 0 down.",
		func() float64 {
			m, ok := f.member(name)
			if !ok {
				return 0
			}
			switch f.stateOf(m) {
			case Healthy:
				return 1
			case Suspect:
				return 0.5
			}
			return 0
		}, lbl)
	f.Obs.GaugeFunc("p4runpro_fleet_member_mem_frac", "Member chip-wide memory utilization [0,1].",
		func() float64 {
			m, ok := f.member(name)
			if !ok {
				return 0
			}
			f.mu.Lock()
			defer f.mu.Unlock()
			mem, _ := usedFracs(m.util)
			return mem
		}, lbl)
	f.Obs.GaugeFunc("p4runpro_fleet_member_entry_frac", "Member chip-wide entry utilization [0,1].",
		func() float64 {
			m, ok := f.member(name)
			if !ok {
				return 0
			}
			f.mu.Lock()
			defer f.mu.Unlock()
			_, ent := usedFracs(m.util)
			return ent
		}, lbl)
}
