package main

import (
	"sync"
	"sync/atomic"
	"time"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/core"
	"p4runpro/internal/rmt"
	"p4runpro/internal/rmt/compile"
	"p4runpro/internal/traffic"
)

// switch_dense_churn: one switch with the probe forwarder plus 1,000 seeded
// background programs owning other prefixes. One goroutine replays the trace
// through InjectBatch in 64-packet bursts, closed loop, first alone (idle
// phase) and then beside an open-loop control schedule (churn phase): every
// 2 ms a deploy+revoke of a cms instance, every tenth slot a full
// prepare/cutover/commit upgrade of probe between FORWARD(2) and FORWARD(3).
// The same tables serve lookups at high fill and continuous mutation, so a
// change that makes writes cheap by making reads dear (or the reverse, or
// that widens the stale-plan window) moves the two packet rates apart. Every
// probe packet must leave on port 2 or 3.

const idleShare = 0.4 // of the budget; the rest is the churn phase

type denseSwitch struct {
	ct     *controlplane.Controller
	tr     *traffic.Trace
	churn  []program
	probeV int           // FORWARD port of the resident probe version
	bursts atomic.Uint64 // bursts the traffic goroutine has completed
}

func newDenseSwitch(r *run) (*denseSwitch, error) {
	ct, err := controlplane.New(r.sc.cfg, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	d := &denseSwitch{ct: ct, probeV: 2}
	if _, err := ct.Deploy(probeSource(d.probeV)); err != nil {
		return nil, err
	}
	for _, p := range backgroundPrograms(r.seed, r.sc.background) {
		if _, err := ct.Deploy(p.src); err != nil {
			return nil, err
		}
	}
	d.tr = makeTrace(r.seed, r.sc.traceMs, [2]byte{})
	d.churn = churnPrograms(r.seed, 256)
	return d, nil
}

type trafficStats struct {
	packets, misdirected, planAbsent, bursts uint64
	burstUS                                  []float64 // per InjectBatch call
}

// pps is the packet rate through the median burst.
func (t *trafficStats) pps() float64 { return unitRate(burstSize, t.burstUS) }

// inject replays the trace in bursts until stop is set. With a recorder it
// also wraps each burst in a span and notes whether a compiled plan was
// published when the burst started.
func (d *denseSwitch) inject(stop *atomic.Bool, st *trafficStats, rec *recorder) {
	sw, evs := d.ct.SW, d.tr.Events
	items := make([]rmt.BatchItem, burstSize)
	for off := 0; !stop.Load(); off += burstSize {
		if off+burstSize > len(evs) {
			off = 0
		}
		for j := range items {
			items[j] = rmt.BatchItem{Pkt: evs[off+j].Pkt, Port: evs[off+j].Port}
		}
		sp := -1
		if rec != nil {
			if _, ok := sw.CompiledPlan(); !ok {
				st.planAbsent++
			}
			sp = rec.begin("rmt.InjectBatch", -1, int(st.bursts))
		}
		start := time.Now()
		sw.InjectBatch(items)
		st.burstUS = append(st.burstUS, us(time.Since(start)))
		rec.end(sp)
		for j := range items {
			res := &items[j].Res
			if res.Verdict != rmt.VerdictForwarded || (res.OutPort != 2 && res.OutPort != 3) {
				st.misdirected++
			}
		}
		st.bursts++
		st.packets += burstSize
		d.bursts.Add(1)
	}
}

type controlStats struct {
	deployUS, upgradeUS, lateUS []float64 // from the due time; how late each slot started
	ops, failed                 int64
}

// control runs the open-loop schedule for about length, in whole turns of
// upgradeEvery slots so that no upgrade is left half done: slot i is due at
// start + i*churnPeriod whether or not the previous slot has finished, and its
// latency is counted from that due time.
func (d *denseSwitch) control(length time.Duration, st *controlStats, rec *recorder) {
	ct := d.ct
	slots := max(1, int(length/churnPeriod)/upgradeEvery) * upgradeEvery
	var inFlight uint64
	start := time.Now()
	for slot := 0; slot < slots; slot++ {
		// call runs one control operation under its own span and counts it.
		call := func(name string, parent int, fn func() error) {
			sp := rec.begin(name, parent, slot)
			err := fn()
			rec.end(sp)
			st.ops++
			if err != nil {
				st.failed++
			}
		}
		due := start.Add(time.Duration(slot) * churnPeriod)
		for time.Now().Before(due) {
			// Spin: a sleeping generator oversleeps by most of a slot here.
		}
		st.lateUS = append(st.lateUS, us(time.Since(due)))
		switch slot % upgradeEvery {
		case upgradeEvery - 2: // link the next version beside the live one and cut traffic over
			root := rec.begin("op.upgrade", -1, slot)
			call("upgrade.Prepare", root, func() error {
				_, err := ct.UpgradePrepare("probe", probeSource(5-d.probeV)) // 2 <-> 3
				return err
			})
			call("upgrade.Cutover", root, func() error {
				_, err := ct.UpgradeCutover("probe", 2)
				return err
			})
			rec.end(root)
			st.upgradeUS = append(st.upgradeUS, us(time.Since(due)))
			inFlight = d.bursts.Load()
		case upgradeEvery - 1:
			// The operator's soak: retire the old version only once the burst
			// that was in flight at cutover has left the pipeline. Packets
			// still carrying the old version's ID are lost otherwise.
			for d.bursts.Load() == inFlight {
			}
			call("upgrade.Commit", -1, func() error {
				_, err := ct.UpgradeCommit("probe")
				return err
			})
			d.probeV = 5 - d.probeV
		default:
			p := d.churn[slot%len(d.churn)]
			call("controlplane.Deploy", -1, func() error {
				_, err := ct.Deploy(p.src)
				return err
			})
			st.deployUS = append(st.deployUS, us(time.Since(due)))
			call("controlplane.Revoke", -1, func() error {
				_, err := ct.Revoke(p.name)
				return err
			})
		}
	}
}

// phases runs the idle phase then the churn phase, adding to the given
// statistics.
func (d *denseSwitch) phases(r *run, idle, churn time.Duration, idleSt, churnSt *trafficStats, ctl *controlStats, rec *recorder) {
	var stop atomic.Bool
	timer := time.AfterFunc(idle, func() { stop.Store(true) })
	d.inject(&stop, idleSt, rec)
	timer.Stop()

	stop.Store(false)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		d.inject(&stop, churnSt, rec)
	}()
	d.control(churn, ctl, rec)
	stop.Store(true)
	wg.Wait()

	// The switch must end as it began but for probe's version.
	ev := d.tr.Events[0]
	res := d.ct.SW.Inject(ev.Pkt, ev.Port)
	r.op(res.Verdict == rmt.VerdictForwarded && res.OutPort == d.probeV, "probe forwards to %d after the last upgrade, want %d", res.OutPort, d.probeV)
	r.op(len(d.ct.Programs()) == r.sc.background+1, "%d programs resident after churn, want %d", len(d.ct.Programs()), r.sc.background+1)
}

// tally counts the packet and control checks of finished phases.
func (r *run) tally(ctl *controlStats, traffic ...*trafficStats) {
	for _, t := range traffic {
		r.ops(int64(t.packets), int64(t.misdirected), "probe packets not forwarded to port 2 or 3")
	}
	r.ops(ctl.ops, ctl.failed, "control operations")
}

func switchDenseChurnE2E(r *run) (map[string]float64, error) {
	var idle, churn trafficStats
	var ctl controlStats
	share := 1 / float64(r.sc.setups)
	for i := 0; i < r.sc.setups; i++ {
		var d *denseSwitch
		if err := r.setup(func() (err error) { d, err = newDenseSwitch(r); return err }); err != nil {
			return nil, err
		}
		d.phases(r, r.budget(share*idleShare), r.budget(share*(1-idleShare)), &idle, &churn, &ctl, nil)
	}
	r.tally(&ctl, &idle, &churn)

	r.note("switch_dense_churn: %d instances, %d resident, idle %.0f pps, churn %.0f pps (ratio %.3f), %d deploy+revoke slots, %d upgrades",
		r.sc.setups, r.sc.background+1, idle.pps(), churn.pps(), churn.pps()/idle.pps(), len(ctl.deployUS), len(ctl.upgradeUS))
	r.latencyLine("deploy_us (from due time)", "us", ctl.deployUS)
	r.latencyLine("upgrade_us (from due time)", "us", ctl.upgradeUS)
	r.latencyLine("generator lateness", "us", ctl.lateUS)
	return map[string]float64{
		"setup_s":              median(r.setupS),
		"primary_rate_per_s":   idle.pps(),
		"secondary_rate_per_s": churn.pps(),
		"primary_p50_us":       median(ctl.deployUS),
		"secondary_p50_us":     median(ctl.upgradeUS),
	}, nil
}

// switchDenseChurnTraced runs both phases untraced and traced at a quarter
// of the budget each, then probes the packet layers and the table layers at
// the workload's fill.
func switchDenseChurnTraced(r *run, rec *recorder) (map[string]float64, error) {
	L := make(map[string]float64)
	d, err := newDenseSwitch(r)
	if err != nil {
		return nil, err
	}
	_, pause0 := memCounters()
	var idleP, churnP, idleT, churnT trafficStats
	var ctlP, ctl controlStats
	d.phases(r, r.budget(0.1), r.budget(0.15), &idleP, &churnP, &ctlP, nil)
	d.phases(r, r.budget(0.1), r.budget(0.15), &idleT, &churnT, &ctl, rec)
	r.tally(&ctlP, &idleP, &churnP)
	r.tally(&ctl, &idleT, &churnT)
	L["bench.trace_overhead_share"] = 1 - (idleT.pps()+churnT.pps())/(idleP.pps()+churnP.pps())
	L["bench.pps_churn_ratio"] = churnP.pps() / idleP.pps()
	L["bench.ctl_late_p99_us"] = percentile(sorted(ctl.lateUS), 0.99)
	L["bench.tail_p99_us"] = percentile(sorted(ctlP.deployUS), 0.99)
	L["rmt.plan_absent_share"] = float64(churnT.planAbsent) / float64(churnT.bursts)

	by := rec.selfByName()
	p50us := func(name string) float64 { return median(fromOps(by[name], 0)) / 1e3 }
	L["upgrade.prepare_us"] = p50us("upgrade.Prepare")
	L["upgrade.cutover_us"] = p50us("upgrade.Cutover")
	L["upgrade.commit_us"] = p50us("upgrade.Commit")
	L["controlplane.deploy_inproc_us"] = p50us("controlplane.Deploy")
	L["controlplane.revoke_us"] = p50us("controlplane.Revoke")

	ev := d.tr.Events[0]
	probePackets(r, d.ct, d.tr, ev.Port, L)
	// The burst figure comes from the phases, not the standalone probe.
	L["rmt.injectbatch_ns"] = median(fromOps(by["rmt.InjectBatch"], 0)) / burstSize
	probeReplay(r, d.ct.SW, d.tr, L)
	probeTable(r, L)
	recompile := timeEach(r.sc.probeIters/20+1, func(int) { compile.Recompile(d.ct.SW) })
	L["compile.recompile_full_us"] = median(recompile) / 1e3
	_, pause1 := memCounters()
	L["go.gc_pause_ms"] = pause1 - pause0
	return L, nil
}
