package p4runpro

// The interpreted/compiled equivalence gate: the compiled packet path is
// only trusted because identical traffic through an interpreted and a
// compiled switch produces identical verdicts, output ports, and SALU
// memory (internal/rmt/compile's differential-verification helpers). Run
// with -race in CI; TestCompiledChurnWithDeploys adds concurrent
// deploy/revoke churn on top.

import (
	"runtime"
	"sync"
	"testing"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/pkt"
	"p4runpro/internal/programs"
	"p4runpro/internal/rmt/compile"
	"p4runpro/internal/traffic"
)

// equivController opens a controller with the standard workload linked:
// a plain forwarder, the calculator (recirculating branch), and a
// heavy-hitter sketch (hashing + SALU state).
func equivController(t *testing.T) *controlplane.Controller {
	t.Helper()
	ct, err := Open(DefaultConfig(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Deploy("program fwd(<hdr.ipv4.dst, 0, 0>) { FORWARD(2); }"); err != nil {
		t.Fatal(err)
	}
	calc, _ := programs.Get("calc")
	if _, err := ct.Deploy(calc.DefaultSource()); err != nil {
		t.Fatal(err)
	}
	hh, _ := programs.Get("hh")
	if _, err := ct.Deploy(hh.Source("hh", programs.Params{MemWords: 1024, Elastic: 2})); err != nil {
		t.Fatal(err)
	}
	return ct
}

// equivFrames builds a deterministic mixed workload: calculator requests
// (including the recirculating SUB branch), TCP flows for the sketch, and
// generic UDP for the forwarder.
func equivFrames() [][]byte {
	var frames [][]byte
	calcFlow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: pkt.PortCalculator, Proto: pkt.ProtoUDP}
	for i := uint32(0); i < 64; i++ {
		for _, op := range []uint32{pkt.CalcAdd, pkt.CalcSub} {
			frames = append(frames, pkt.NewCalc(calcFlow, op, 100+i, 3+i%5).Marshal())
		}
	}
	for i := 0; i < 256; i++ {
		flow := pkt.FiveTuple{
			SrcIP: pkt.IP(10, 0, 0, byte(i%16)), DstIP: pkt.IP(10, 1, 0, byte(i%8)),
			SrcPort: uint16(1000 + i%32), DstPort: 80, Proto: pkt.ProtoTCP,
		}
		frames = append(frames, pkt.NewTCP(flow, pkt.TCPAck, 256).Marshal())
	}
	for i := 0; i < 64; i++ {
		flow := pkt.FiveTuple{SrcIP: uint32(i), DstIP: uint32(7 + i), SrcPort: 5, DstPort: 53, Proto: pkt.ProtoUDP}
		frames = append(frames, pkt.NewUDP(flow, 128).Marshal())
	}
	return frames
}

// TestInterpretedCompiledEquivalence replays the identical frame sequence
// through an interpreted and a compiled controller and diffs every verdict,
// output port, and SALU word. A deploy/revoke round mid-sequence happens at
// the same frame index on both sides, so plan invalidation and recompilation
// are inside the diffed window.
func TestInterpretedCompiledEquivalence(t *testing.T) {
	ctI := equivController(t)
	ctI.SetCompile(false)
	ctC := equivController(t)
	if _, ok := ctC.SW.CompiledPlan(); !ok {
		t.Fatal("compiled controller has no published plan")
	}
	if _, ok := ctI.SW.CompiledPlan(); ok {
		t.Fatal("interpreted controller still has a plan")
	}

	frames := equivFrames()
	churn := func(ct *controlplane.Controller, i int) {
		// The same runtime update at the same sequence point on both sides:
		// link and unlink an extra sketch instance, forcing invalidation and
		// (on the compiled side) recompilation mid-traffic.
		spec, _ := programs.Get("cms")
		name, src := programs.Instantiate(spec, i, programs.DefaultParams())
		if _, err := ct.Deploy(src); err != nil {
			t.Fatalf("churn deploy: %v", err)
		}
		if _, err := ct.Revoke(name); err != nil {
			t.Fatalf("churn revoke: %v", err)
		}
	}
	half := len(frames) / 2
	for _, span := range [][2]int{{0, half}, {half, len(frames)}} {
		if diffs := compile.VerifyFrames(ctI.SW, ctC.SW, frames[span[0]:span[1]], 1); len(diffs) > 0 {
			for _, d := range diffs[:min(len(diffs), 5)] {
				t.Errorf("span %v: %s", span, d)
			}
			t.Fatalf("%d disposition diffs", len(diffs))
		}
		churn(ctI, span[0])
		churn(ctC, span[0])
	}
	memDiffs, err := compile.DiffMemory(ctI.SW, ctC.SW, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(memDiffs) > 0 {
		for _, d := range memDiffs[:min(len(memDiffs), 5)] {
			t.Error(d)
		}
		t.Fatalf("%d SALU word diffs", len(memDiffs))
	}
	// Both sides must have counted the same per-stage lookups: the compiled
	// path's metrics contract.
	mi, mc := ctI.SW.Metrics(), ctC.SW.Metrics()
	if mi.Packets != mc.Packets || mi.Passes != mc.Passes || mi.SALUOps != mc.SALUOps {
		t.Fatalf("metrics diverge: %+v vs %+v", mi, mc)
	}
	for i := range mi.StageLookups {
		if mi.StageLookups[i] != mc.StageLookups[i] {
			t.Fatalf("stage %d lookups: %d vs %d", i, mi.StageLookups[i], mc.StageLookups[i])
		}
	}
}

// TestUpdateMidReplayNoStalePlan is the stale-plan regression test at the
// control-plane level: while traffic is in flight, a program is revoked and
// replaced with one that forwards elsewhere; the first packet injected after
// Deploy returns must already observe the new behavior — a surviving stale
// plan would keep forwarding to the old port. The replacement is Revoke then
// Deploy, so a background packet landing in the gap matches nothing (port
// -1); that is allowed. A gapless replacement is UpgradePrepare/Cutover/
// Commit's job, and its own tests hold it to that.
func TestUpdateMidReplayNoStalePlan(t *testing.T) {
	ct, err := Open(DefaultConfig(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Deploy("program fwd(<hdr.ipv4.dst, 0, 0>) { FORWARD(2); }"); err != nil {
		t.Fatal(err)
	}
	flow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: pkt.ProtoUDP}
	if r := ct.SW.Inject(pkt.NewUDP(flow, 128), 1); r.OutPort != 2 {
		t.Fatalf("pre-update port %d", r.OutPort)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < max(2, runtime.GOMAXPROCS(0)-1); w++ {
		wg.Add(1)
		go func() { // background traffic across the update
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r := ct.SW.Inject(pkt.NewUDP(flow, 128), 1)
				if r.OutPort != 2 && r.OutPort != 3 && r.OutPort != -1 {
					t.Errorf("mid-update port %d", r.OutPort)
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, err := ct.Revoke("fwd"); err != nil {
			t.Fatal(err)
		}
		if _, err := ct.Deploy("program fwd(<hdr.ipv4.dst, 0, 0>) { FORWARD(3); }"); err != nil {
			t.Fatal(err)
		}
		// Deploy returned: no packet injected from here on may execute the
		// pre-update plan.
		if r := ct.SW.Inject(pkt.NewUDP(flow, 128), 1); r.OutPort != 3 {
			t.Fatalf("round %d: stale plan executed after update: port %d", i, r.OutPort)
		}
		if _, err := ct.Revoke("fwd"); err != nil {
			t.Fatal(err)
		}
		if _, err := ct.Deploy("program fwd(<hdr.ipv4.dst, 0, 0>) { FORWARD(2); }"); err != nil {
			t.Fatal(err)
		}
		if r := ct.SW.Inject(pkt.NewUDP(flow, 128), 1); r.OutPort != 2 {
			t.Fatalf("round %d: stale plan executed after update: port %d", i, r.OutPort)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCompiledChurnWithDeploys races parallel batched replay against real
// deploy/revoke churn on the compiled path — the -race soak for plan
// publication against the full control plane.
func TestCompiledChurnWithDeploys(t *testing.T) {
	ct := equivController(t)
	cfg := traffic.DefaultConfig()
	cfg.DurationMs = 60
	tr := traffic.Generate(cfg)
	spec, _ := programs.Get("cms")
	sched := make([]traffic.Action, 0, 6)
	for i := 0; i < 3; i++ {
		i := i
		at := float64(10 + 15*i)
		sched = append(sched, traffic.Action{AtMs: at, Do: func() {
			name, src := programs.Instantiate(spec, 100+i, programs.DefaultParams())
			if _, err := ct.Deploy(src); err != nil {
				t.Errorf("churn deploy: %v", err)
				return
			}
			if _, err := ct.Revoke(name); err != nil {
				t.Errorf("churn revoke: %v", err)
			}
		}})
	}
	res := traffic.ReplayParallel(tr, ct.SW, sched, 10, 4)
	if res.Packets != len(tr.Events) {
		t.Fatalf("replayed %d of %d packets", res.Packets, len(tr.Events))
	}
	if _, ok := ct.SW.CompiledPlan(); !ok {
		t.Fatal("no plan published after churn settled")
	}
}
