package fleet

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/core"
	"p4runpro/internal/journal"
	"p4runpro/internal/pkt"
	"p4runpro/internal/rmt"
	"p4runpro/internal/wire"
)

const counterSrc = `
@ m 256
program counter(<hdr.ipv4.src, 10.0.0.0, 0xff000000>) {
    LOADI(sar, 1);
    HASH_5_TUPLE_MEM(m);
    MEMADD(m);
}
`

const dropSrc = `
program dropper(<hdr.ipv4.src, 11.0.0.0, 0xff000000>) {
    DROP;
}
`

// ctx is the untraced context the tests drive the fleet API under.
var ctx = context.Background()

func newLocalMember(t *testing.T) *controlplane.Controller {
	t.Helper()
	ct, err := controlplane.New(rmt.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// testFleet builds a fleet of n in-process members named m1..mN with fast
// timings and no background loops (tests drive probes and reconciles
// deterministically unless they call Start themselves).
func testFleet(t *testing.T, n int, opt Options) (*Fleet, []*controlplane.Controller) {
	t.Helper()
	f := New(opt)
	cts := make([]*controlplane.Controller, n)
	for i := 0; i < n; i++ {
		cts[i] = newLocalMember(t)
		if err := f.AddMember(memberName(i), Local(cts[i])); err != nil {
			t.Fatal(err)
		}
	}
	return f, cts
}

func memberName(i int) string { return fmt.Sprintf("m%d", i+1) }

func TestPlacementPolicies(t *testing.T) {
	views := []MemberView{
		{Name: "a", EntriesFree: 100, EntriesCap: 1000, MemFree: 1000, MemCap: 10000},
		{Name: "b", EntriesFree: 900, EntriesCap: 1000, MemFree: 9000, MemCap: 10000},
		{Name: "c", EntriesFree: 500, EntriesCap: 1000, MemFree: 5000, MemCap: 10000},
	}
	fp := Footprint{Entries: 50, MemWords: 500}

	got, err := (BestFit{}).Place(views, fp)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != "a" || got[1] != "c" || got[2] != "b" {
		t.Errorf("best-fit order = %v", got)
	}

	got, err = (Spread{}).Place(views, fp)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != "b" || got[1] != "c" || got[2] != "a" {
		t.Errorf("spread order = %v", got)
	}

	// Spread prefers fewer assigned units before headroom.
	views[2].Units = 0
	views[1].Units = 3
	got, _ = (Spread{}).Place(views, fp)
	if got[0] != "c" {
		t.Errorf("spread with units order = %v", got)
	}

	// Members that cannot fit are excluded.
	big := Footprint{Entries: 600, MemWords: 100}
	got, err = (Spread{}).Place(views, big)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "b" {
		t.Errorf("big fit = %v", got)
	}

	// Nothing fits: typed error.
	_, err = (BestFit{}).Place(views, Footprint{Entries: 5000})
	var nc *ErrNoCapacity
	if !errors.As(err, &nc) {
		t.Fatalf("err = %v, want ErrNoCapacity", err)
	}

	// ReplicateK defers to its base and reports its replica count.
	rk := ReplicateK{K: 2}
	if replicas(rk) != 2 || replicas(Spread{}) != 1 {
		t.Error("replica defaults wrong")
	}
	got, err = rk.Place(views, fp)
	if err != nil || len(got) != 3 {
		t.Fatalf("replicate-k place = %v, %v", got, err)
	}
}

func TestTopologyAwarePlacement(t *testing.T) {
	views := []MemberView{
		{Name: "leaf0", EntriesFree: 900, EntriesCap: 1000, MemFree: 9000, MemCap: 10000},
		{Name: "leaf1", EntriesFree: 900, EntriesCap: 1000, MemFree: 9000, MemCap: 10000},
		{Name: "spine0", EntriesFree: 900, EntriesCap: 1000, MemFree: 9000, MemCap: 10000},
	}
	fp := Footprint{Entries: 50, MemWords: 500}

	// The member seeing the most edge traffic wins, regardless of the base
	// policy's alphabetical tie break.
	ta := TopologyAware{Traffic: func() map[string]uint64 {
		return map[string]uint64{"leaf0": 10, "leaf1": 5000, "spine0": 0}
	}}
	got, err := ta.Place(views, fp)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != "leaf1" || got[1] != "leaf0" || got[2] != "spine0" {
		t.Errorf("topology-aware order = %v", got)
	}

	// Capacity still gates: a member that cannot fit is excluded even when
	// it carries all the traffic.
	views[1].EntriesFree = 10
	got, err = ta.Place(views, fp)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "leaf0" {
		t.Errorf("topology-aware with full leaf1 = %v", got)
	}
	views[1].EntriesFree = 900

	// No signal (nil func or empty map): pure base-policy order.
	got, _ = TopologyAware{}.Place(views, fp)
	if got[0] != "leaf0" || got[1] != "leaf1" || got[2] != "spine0" {
		t.Errorf("topology-aware without signal = %v", got)
	}

	// The fabric's EdgeRx plugs in directly as the traffic signal.
	if (TopologyAware{}).Name() != "topology-aware" {
		t.Error("policy name")
	}
}

func TestStore(t *testing.T) {
	s := NewStore()
	u := &Unit{Key: "a,b", Programs: []string{"a", "b"}, Replicas: 2, Members: []string{"m1"}}
	if err := s.Put(u); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(&Unit{Key: "c,a", Programs: []string{"c", "a"}}); err == nil {
		t.Error("conflicting program accepted")
	}
	got, ok := s.Resolve("b")
	if !ok || got.Key != "a,b" {
		t.Fatalf("resolve by program = %+v, %v", got, ok)
	}
	// Returned copies don't alias intent.
	got.Members[0] = "hacked"
	again, _ := s.Resolve("a,b")
	if again.Members[0] != "m1" {
		t.Error("store leaked mutable state")
	}
	s.SetMembers("a,b", []string{"m2", "m3"})
	again, _ = s.Resolve("a")
	if len(again.Members) != 2 || again.Members[0] != "m2" {
		t.Errorf("members = %v", again.Members)
	}
	if _, ok := s.Delete("a,b"); !ok {
		t.Fatal("delete failed")
	}
	if _, ok := s.Resolve("a"); ok {
		t.Error("program mapping survived delete")
	}
}

func TestDeployReplicationAndFanIn(t *testing.T) {
	f, cts := testFleet(t, 3, Options{Policy: ReplicateK{K: 2}})
	res, err := f.Deploy(ctx, counterSrc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Members) != 2 || res[0].Unit != "counter" {
		t.Fatalf("deploy result = %+v", res)
	}
	// Exactly two members hold the program.
	holding := 0
	for _, ct := range cts {
		if len(ct.Programs()) == 1 {
			holding++
		}
	}
	if holding != 2 {
		t.Fatalf("replicas on %d members, want 2", holding)
	}
	// Fan-in program view.
	progs := f.Programs(ctx)
	if len(progs) != 1 || progs[0].Replicas != 2 || progs[0].Desired != 2 || progs[0].Unit != "counter" {
		t.Fatalf("programs = %+v", progs)
	}
	// Double deploy is rejected.
	if _, err := f.Deploy(ctx, counterSrc, 0); err == nil {
		t.Error("duplicate deploy accepted")
	}
	// A second unit spreads away from the first (least units first).
	res2, err := f.Deploy(ctx, dropSrc, 1)
	if err != nil {
		t.Fatal(err)
	}
	u1, _ := f.store.Resolve("counter")
	for _, m := range res2[0].Members {
		if u1.hasMember(m) {
			t.Errorf("dropper landed on busy member %s (counter on %v)", m, u1.Members)
		}
	}
	// Utilization fans out all three members.
	if rows := f.Utilization(ctx); len(rows) != 3 {
		t.Fatalf("utilization rows = %d", len(rows))
	}
	// Revoke clears every replica.
	rev, err := f.Revoke(ctx, "counter")
	if err != nil || len(rev.Members) != 2 {
		t.Fatalf("revoke = %+v, %v", rev, err)
	}
	for _, ct := range cts {
		for _, pi := range ct.Programs() {
			if pi.Name == "counter" {
				t.Error("replica survived revoke")
			}
		}
	}
	if _, err := f.Revoke(ctx, "counter"); err == nil {
		t.Error("double revoke accepted")
	}
}

func TestMemReadAggregation(t *testing.T) {
	f, cts := testFleet(t, 2, Options{Policy: ReplicateK{K: 2}})
	if _, err := f.Deploy(ctx, counterSrc, 0); err != nil {
		t.Fatal(err)
	}
	flow := pkt.FiveTuple{SrcIP: pkt.IP(10, 1, 2, 3), DstIP: 9, SrcPort: 1, DstPort: 2, Proto: pkt.ProtoUDP}
	frame := pkt.NewUDP(flow, 100)
	// 2 packets through member 1, 3 through member 2.
	for i := 0; i < 2; i++ {
		cts[0].SW.Inject(frame.Clone(), 4)
	}
	for i := 0; i < 3; i++ {
		cts[1].SW.Inject(frame.Clone(), 4)
	}
	sum, err := f.MemRead(ctx, "counter", "m", 0, 256, "")
	if err != nil {
		t.Fatal(err)
	}
	if sum.Replicas != 2 || sum.Agg != wire.FleetAggSum {
		t.Fatalf("sum meta = %+v", sum)
	}
	var total uint32
	for _, v := range sum.Values {
		total += v
	}
	if total != 5 {
		t.Errorf("sum total = %d, want 5", total)
	}
	max, err := f.MemRead(ctx, "counter", "m", 0, 256, wire.FleetAggMax)
	if err != nil {
		t.Fatal(err)
	}
	var maxTotal uint32
	for _, v := range max.Values {
		maxTotal += v
	}
	if maxTotal != 3 { // same bucket on both members; max is the busier one
		t.Errorf("max total = %d, want 3", maxTotal)
	}
	first, err := f.MemRead(ctx, "counter", "m", 0, 256, wire.FleetAggFirst)
	if err != nil || first.Replicas != 1 {
		t.Fatalf("first = %+v, %v", first, err)
	}
	if _, err := f.MemRead(ctx, "counter", "m", 0, 1, "median"); err == nil {
		t.Error("bad aggregation accepted")
	}
	// Writes reach every replica.
	if err := f.MemWrite(ctx, "counter", "m", 7, 99); err != nil {
		t.Fatal(err)
	}
	for i, ct := range cts {
		v, err := ct.ReadMemory("counter", "m", 7)
		if err != nil || v != 99 {
			t.Errorf("member %d bucket = %d, %v", i, v, err)
		}
	}
}

// flakyBackend wraps a Member and fails every call while tripped.
type flakyBackend struct {
	Member
	dead atomic.Bool
}

var errFlaky = errors.New("simulated member crash")

func (fb *flakyBackend) Do(ctx context.Context, method string, params, result any, frames ...[]byte) ([][]byte, error) {
	if fb.dead.Load() {
		return nil, errFlaky
	}
	return fb.Member.Do(ctx, method, params, result, frames...)
}

func TestHealthStateMachineAndFailover(t *testing.T) {
	opt := Options{
		Policy:        ReplicateK{K: 2},
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  100 * time.Millisecond,
		DownAfter:     3,
	}
	f := New(opt)
	cts := make([]*controlplane.Controller, 3)
	flaky := &flakyBackend{}
	for i := 0; i < 3; i++ {
		cts[i] = newLocalMember(t)
		var b Member = Local(cts[i])
		if i == 0 {
			flaky.Member = b
			b = flaky
		}
		if err := f.AddMember([]string{"m1", "m2", "m3"}[i], b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Deploy(ctx, counterSrc, 0); err != nil {
		t.Fatal(err)
	}
	// Fresh identical members tie-break by name: the unit sits on m1+m2.
	u, _ := f.store.Resolve("counter")
	if !u.hasMember("m1") || !u.hasMember("m2") {
		t.Fatalf("members = %v, want [m1 m2]", u.Members)
	}

	// Trip the flaky member and walk the probe state machine.
	flaky.dead.Store(true)
	m1, _ := f.member("m1")
	f.probe(m1)
	if got := f.stateOf(m1); got != Suspect {
		t.Fatalf("after 1 failure state = %v", got)
	}
	f.probe(m1)
	if got := f.stateOf(m1); got != Suspect {
		t.Fatalf("after 2 failures state = %v", got)
	}
	f.probe(m1)
	if got := f.stateOf(m1); got != Down {
		t.Fatalf("after 3 failures state = %v", got)
	}

	// Reads skip the down member without failing.
	if _, err := f.MemRead(ctx, "counter", "m", 0, 1, ""); err != nil {
		t.Fatalf("read failed during outage: %v", err)
	}

	// Reconcile fails the down member's unit over to the survivor m3.
	f.Reconcile()
	after, _ := f.store.Resolve("counter")
	if len(after.Members) != 2 || after.hasMember("m1") || !after.hasMember("m3") {
		t.Fatalf("unit not failed over: %v", after.Members)
	}
	for _, i := range []int{1, 2} {
		found := false
		for _, pi := range cts[i].Programs() {
			if pi.Name == "counter" {
				found = true
			}
		}
		if !found {
			t.Fatalf("member %d missing counter after failover", i+1)
		}
	}
	scrape := f.Obs.Prometheus()
	for _, want := range []string{
		"p4runpro_fleet_failovers_total 1",
		"p4runpro_fleet_member_down_transitions_total 1",
		`p4runpro_fleet_reconcile_actions_total{action="deploy"} 1`,
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}

	// Recovery: member comes back, probe heals it, reconcile revokes the
	// orphaned stale copy (its unit now lives elsewhere).
	flaky.dead.Store(false)
	f.probe(m1)
	if got := f.stateOf(m1); got != Healthy {
		t.Fatalf("after recovery state = %v", got)
	}
	f.Reconcile()
	if n := len(cts[0].Programs()); n != 0 {
		t.Errorf("orphan not revoked, member 1 has %d programs", n)
	}
}

func TestFootprintEstimate(t *testing.T) {
	f, _ := testFleet(t, 1, Options{})
	names, fp, err := f.footprint(counterSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "counter" {
		t.Fatalf("names = %v", names)
	}
	if fp.Entries == 0 || fp.MemWords != 256 {
		t.Fatalf("footprint = %+v", fp)
	}
	// The scratch controller is clean afterwards: estimating twice agrees.
	_, fp2, err := f.footprint(counterSrc)
	if err != nil || fp2 != fp {
		t.Fatalf("second estimate = %+v, %v", fp2, err)
	}
	if _, _, err := f.footprint("program broken("); err == nil {
		t.Error("bad source estimated")
	}
}

func TestStartStopIdempotent(t *testing.T) {
	f, _ := testFleet(t, 1, Options{ProbeInterval: 5 * time.Millisecond, ReconcileInterval: 5 * time.Millisecond})
	f.Start()
	f.Start() // second start is a no-op
	time.Sleep(20 * time.Millisecond)
	f.Stop()
	f.Stop() // second stop is a no-op
	if !strings.Contains(f.String(), "1 members (1 healthy") {
		t.Errorf("status = %s", f.String())
	}
}

// TestReconcileAdoptsRejoinedMember proves the durability story end to end
// at the fleet layer: a journaled member crashes, its unit drops below the
// replica target (no spare member to take the slot), and when the member
// rejoins — its control plane rebuilt from the write-ahead journal —
// reconciliation adopts the intact copy instead of revoking it as an
// orphan and re-deploying.
func TestReconcileAdoptsRejoinedMember(t *testing.T) {
	dir := t.TempDir()
	ct1, err := controlplane.Recover(dir, rmt.DefaultConfig(), core.DefaultOptions(),
		journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyBackend{Member: Local(ct1)}
	f := New(Options{Policy: ReplicateK{K: 2}, DownAfter: 3})
	if err := f.AddMember("m1", flaky); err != nil {
		t.Fatal(err)
	}
	if err := f.AddMember("m2", Local(newLocalMember(t))); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Deploy(ctx, counterSrc, 0); err != nil {
		t.Fatal(err)
	}

	// Crash m1: probes trip the state machine, reconcile drops the replica
	// and cannot re-place it (m2 already holds the unit; no third member).
	flaky.dead.Store(true)
	m1, _ := f.member("m1")
	for i := 0; i < 3; i++ {
		f.probe(m1)
	}
	if got := f.stateOf(m1); got != Down {
		t.Fatalf("state after crash = %v", got)
	}
	f.Reconcile()
	if u, _ := f.store.Resolve("counter"); len(u.Members) != 1 || u.hasMember("m1") {
		t.Fatalf("unit during outage = %v, want [m2]", u.Members)
	}

	// Restart m1 from its journal: the recovered control plane holds the
	// program without any fleet action.
	if err := ct1.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := controlplane.Recover(dir, rmt.DefaultConfig(), core.DefaultOptions(),
		journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rec.Programs()); n != 1 {
		t.Fatalf("recovered member has %d programs, want 1", n)
	}
	flaky.Member = Local(rec)
	flaky.dead.Store(false)
	f.probe(m1)
	if got := f.stateOf(m1); got != Healthy {
		t.Fatalf("state after rejoin = %v", got)
	}

	// Reconcile adopts the intact copy: the unit is back at 2/2 with m1
	// assigned, the recovered program was neither revoked nor re-deployed.
	f.Reconcile()
	u, _ := f.store.Resolve("counter")
	if len(u.Members) != 2 || !u.hasMember("m1") || !u.hasMember("m2") {
		t.Fatalf("unit after rejoin = %v, want [m1 m2]", u.Members)
	}
	if n := len(rec.Programs()); n != 1 {
		t.Fatalf("recovered copy revoked: member has %d programs", n)
	}
	scrape := f.Obs.Prometheus()
	if !strings.Contains(scrape, `p4runpro_fleet_reconcile_actions_total{action="adopt"} 1`) {
		t.Error("scrape missing adoption counter")
	}
	if !strings.Contains(scrape, `p4runpro_fleet_reconcile_actions_total{action="deploy"} 0`) {
		t.Error("adoption should not re-deploy")
	}
	if !strings.Contains(scrape, `p4runpro_fleet_reconcile_actions_total{action="revoke"} 0`) {
		t.Error("adoption should not revoke the survivor")
	}
}

// servesTelemetry has s answer telemetry.programs with a canned scrape, as
// a member daemon's sweep engine would.
func servesTelemetry(s *wire.Server, res wire.TelemetryProgramsResult) *wire.Server {
	wire.Handle(s, wire.MethodTelemetryPrograms, func(context.Context, struct{}) (wire.TelemetryProgramsResult, error) {
		return res, nil
	})
	return s
}

// telFailBackend is a member whose telemetry verb always fails.
type telFailBackend struct{ Member }

func (b telFailBackend) Do(ctx context.Context, method string, params, result any, frames ...[]byte) ([][]byte, error) {
	if method == wire.MethodTelemetryPrograms {
		return nil, errFlaky
	}
	return b.Member.Do(ctx, method, params, result, frames...)
}

func row(program string, pps float64, pkts uint64, samples int, windowMs int64) wire.TelemetryProgramRow {
	return wire.TelemetryProgramRow{
		Program: program, PPS: pps, PacketHits: pkts,
		Hits: pkts * 2, MemWords: 64, Entries: 3,
		Samples: samples, WindowMs: windowMs,
	}
}

// TestFleetTop: the per-program fan-in merges member rows, skips Down
// members and telemetry failures, and still answers during the outage.
func TestFleetTop(t *testing.T) {
	f := New(Options{})
	add := func(name string, res wire.TelemetryProgramsResult) {
		if err := f.AddMember(name, servesTelemetry(Local(newLocalMember(t)), res)); err != nil {
			t.Fatal(err)
		}
	}
	add("m1", wire.TelemetryProgramsResult{
		Rows:      []wire.TelemetryProgramRow{row("a", 10, 50, 5, 4000), row("b", 5, 25, 5, 4000)},
		SwitchPPS: 30, ForwardedPPS: 20, Sweeps: 7, IntervalMs: 1000,
	})
	add("m2", wire.TelemetryProgramsResult{
		Rows:      []wire.TelemetryProgramRow{row("a", 20, 90, 3, 2000)},
		SwitchPPS: 40, ForwardedPPS: 35, Sweeps: 9, IntervalMs: 2000,
	})
	// m3's telemetry verb crashes; m4 is marked Down outright. Neither may
	// poison the answer.
	if err := f.AddMember("m3", telFailBackend{Local(newLocalMember(t))}); err != nil {
		t.Fatal(err)
	}
	add("m4", wire.TelemetryProgramsResult{
		Rows: []wire.TelemetryProgramRow{row("ghost", 1000, 1, 1, 1)}, SwitchPPS: 1000,
	})
	m4, _ := f.member("m4")
	f.mu.Lock()
	m4.state = Down
	f.mu.Unlock()

	res := f.Top(ctx)
	if res.SwitchPPS != 70 || res.ForwardedPPS != 55 || res.Sweeps != 16 || res.IntervalMs != 2000 {
		t.Fatalf("aggregates = %+v", res)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %+v", res.Rows)
	}
	a, b := res.Rows[0], res.Rows[1]
	if a.Program != "a" || b.Program != "b" {
		t.Fatalf("row order = %s, %s", a.Program, b.Program)
	}
	if a.PPS != 30 || a.PacketHits != 140 || a.MemWords != 128 || a.Entries != 6 {
		t.Fatalf("merged row a = %+v", a)
	}
	// The merged window reflects the least history any replica holds.
	if a.Samples != 3 || a.WindowMs != 2000 {
		t.Fatalf("merged window = samples %d, %dms", a.Samples, a.WindowMs)
	}
	if len(a.Members) != 2 || a.Members[0] != "m1" || a.Members[1] != "m2" {
		t.Fatalf("row a members = %v", a.Members)
	}
	if len(b.Members) != 1 || b.Members[0] != "m1" {
		t.Fatalf("row b members = %v", b.Members)
	}
	if got, want := a.HitRatio, 30.0/70; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("hit ratio = %v, want %v", got, want)
	}
	// The outage was recorded against m3, not swallowed.
	m3, _ := f.member("m3")
	f.mu.Lock()
	fails := m3.consecFails
	f.mu.Unlock()
	if fails == 0 {
		t.Fatal("telemetry failure not noted against m3")
	}
}

// TestFleetTopOverWire: the fleet.top verb round-trips through the wire
// server and typed client.
func TestFleetTopOverWire(t *testing.T) {
	f := New(Options{})
	lb := servesTelemetry(Local(newLocalMember(t)), wire.TelemetryProgramsResult{
		Rows:      []wire.TelemetryProgramRow{row("a", 12, 6, 2, 500)},
		SwitchPPS: 12, ForwardedPPS: 12, Sweeps: 2, IntervalMs: 250,
	})
	if err := f.AddMember("m1", lb); err != nil {
		t.Fatal(err)
	}
	srv := NewWireServer(f, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := wire.Call[wire.TelemetryProgramsResult](ctx, c, wire.MethodFleetTop, nil)
	if err != nil {
		t.Fatalf("fleet.top: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Program != "a" || res.Rows[0].PPS != 12 {
		t.Fatalf("fleet.top over wire = %+v", res)
	}
	if len(res.Rows[0].Members) != 1 || res.Rows[0].Members[0] != "m1" {
		t.Fatalf("members over wire = %v", res.Rows[0].Members)
	}
}

// batchSpyBackend wraps a Member and counts how the fleet reaches it:
// batched deploys vs. single deploys.
type batchSpyBackend struct {
	Member
	batchCalls   atomic.Int64
	batchSources atomic.Int64
	soloCalls    atomic.Int64
}

func newBatchSpy(ct *controlplane.Controller) *batchSpyBackend {
	return &batchSpyBackend{Member: Local(ct)}
}

func (b *batchSpyBackend) Do(ctx context.Context, method string, params, result any, frames ...[]byte) ([][]byte, error) {
	switch method {
	case wire.MethodDeploy:
		b.soloCalls.Add(1)
	case wire.MethodDeployBatch:
		b.batchCalls.Add(1)
		b.batchSources.Add(int64(len(params.(wire.DeployBatchParams).Sources)))
	}
	return b.Member.Do(ctx, method, params, result, frames...)
}

// TestReconcileBatchesDeploys: a member death orphaning several units costs
// the survivor ONE deploy.batch round trip carrying every re-placed unit,
// not one Deploy per unit.
func TestReconcileBatchesDeploys(t *testing.T) {
	f := New(Options{Policy: ReplicateK{K: 1}, DownAfter: 1})
	flaky := &flakyBackend{Member: Local(newLocalMember(t))}
	if err := f.AddMember("m1", flaky); err != nil {
		t.Fatal(err)
	}
	// Both units land on m1 — the spy joins only afterwards, so every
	// deploy it ever sees comes from the reconcile pass.
	for _, src := range []string{counterSrc, dropSrc} {
		if _, err := f.Deploy(ctx, src, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"counter", "dropper"} {
		if u, _ := f.store.Resolve(p); !u.hasMember("m1") {
			t.Fatalf("unit %s on %v, want m1", p, u.Members)
		}
	}
	spy := newBatchSpy(newLocalMember(t))
	if err := f.AddMember("m2", spy); err != nil {
		t.Fatal(err)
	}

	flaky.dead.Store(true)
	m1, _ := f.member("m1")
	f.probe(m1)
	if f.stateOf(m1) != Down {
		t.Fatal("m1 not down")
	}
	f.Reconcile()

	for _, p := range []string{"counter", "dropper"} {
		u, _ := f.store.Resolve(p)
		if len(u.Members) != 1 || !u.hasMember("m2") {
			t.Fatalf("unit %s not failed over: %v", p, u.Members)
		}
	}
	if got := spy.batchCalls.Load(); got != 1 {
		t.Errorf("survivor saw %d batch calls, want 1", got)
	}
	if got := spy.batchSources.Load(); got != 2 {
		t.Errorf("batch carried %d sources, want 2", got)
	}
	if got := spy.soloCalls.Load(); got != 0 {
		t.Errorf("survivor saw %d single deploys, want 0", got)
	}
}

// batchFailBackend is a member whose bulk write always fails.
type batchFailBackend struct{ Member }

func (b batchFailBackend) Do(ctx context.Context, method string, params, result any, frames ...[]byte) ([][]byte, error) {
	if method == wire.MethodMemWriteBatch {
		return nil, errFlaky
	}
	return b.Member.Do(ctx, method, params, result, frames...)
}

// TestFleetMemWriteBatch: the bulk write fans out to every live replica
// and every bucket lands; a replica whose batch fails is charged the
// failure without failing the call or disturbing the other replica.
func TestFleetMemWriteBatch(t *testing.T) {
	f := New(Options{Policy: ReplicateK{K: 3}})
	cts := []*controlplane.Controller{newLocalMember(t), newLocalMember(t), newLocalMember(t)}
	for i, ct := range cts[:2] {
		if err := f.AddMember(memberName(i), Local(ct)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.AddMember("m3", batchFailBackend{Local(cts[2])}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Deploy(ctx, counterSrc, 0); err != nil {
		t.Fatal(err)
	}
	writes := []wire.MemWriteEntry{{Addr: 1, Value: 11}, {Addr: 2, Value: 22}, {Addr: 250, Value: 33}}
	if err := f.MemWriteBatch(ctx, "counter", "m", writes); err != nil {
		t.Fatal(err)
	}
	for i, ct := range cts[:2] {
		for _, w := range writes {
			if v, err := ct.ReadMemory("counter", "m", w.Addr); err != nil || v != w.Value {
				t.Errorf("member %d bucket %d = %d, %v (want %d)", i+1, w.Addr, v, err, w.Value)
			}
		}
	}
	if v, err := cts[2].ReadMemory("counter", "m", 1); err != nil || v != 0 {
		t.Errorf("failing member bucket 1 = %d, %v (want untouched)", v, err)
	}
	m3, _ := f.member("m3")
	f.mu.Lock()
	fails, lastErr := m3.consecFails, m3.lastErr
	f.mu.Unlock()
	if fails != 1 || !errors.Is(lastErr, errFlaky) {
		t.Errorf("batch failure not charged to m3: fails=%d err=%v", fails, lastErr)
	}
	if err := f.MemWriteBatch(ctx, "ghost", "m", writes); err == nil {
		t.Error("write to unknown unit accepted")
	}
}
