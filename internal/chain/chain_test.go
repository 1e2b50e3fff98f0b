package chain

import (
	"context"
	"testing"

	"p4runpro/internal/core"
	"p4runpro/internal/dataplane"
	"p4runpro/internal/pkt"
	"p4runpro/internal/programs"
	"p4runpro/internal/rmt"
)

func newChain(t *testing.T, k int) *Chain {
	t.Helper()
	ch, err := New(k, rmt.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ch
}

// TestCalculatorOverChain: the calculator's SUB branch needs a second pass;
// on a 2-switch chain that pass runs on switch 1, with the execution
// context carried in the serialized shim between hops.
func TestCalculatorOverChain(t *testing.T) {
	ch := newChain(t, 2)
	spec, _ := programs.Get("calc")
	lps, err := ch.Deploy(spec.DefaultSource())
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	lp := lps[0]
	if lp.Alloc.MaxPass() != 1 {
		t.Fatalf("calc uses %d passes, expected 2 (deep SUB branch)", lp.Alloc.MaxPass()+1)
	}
	// At least one entry of the program must live on the second switch.
	secondSwitchEntries := 0
	for _, tbl := range ch.Switches[1].Tables() {
		for _, e := range tbl.Entries() {
			if e.Owner == "calc" {
				secondSwitchEntries++
			}
		}
	}
	if secondSwitchEntries == 0 {
		t.Fatal("no entries placed on the second switch")
	}

	flow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: pkt.PortCalculator, Proto: pkt.ProtoUDP}
	// ADD completes on the first switch.
	add := pkt.NewCalc(flow, pkt.CalcAdd, 30, 12)
	res := ch.Inject(add, 1)
	if res.Verdict != rmt.VerdictReflected || add.Calc.Result != 42 {
		t.Errorf("ADD over chain: %v result=%d", res.Verdict, add.Calc.Result)
	}
	// SUB crosses to the second switch; the result must come back right
	// even though the verdict (RETURN) was decided on hop 2's ingress.
	sub := pkt.NewCalc(flow, pkt.CalcSub, 30, 12)
	res = ch.Inject(sub, 1)
	if res.Verdict != rmt.VerdictReflected {
		t.Fatalf("SUB over chain: verdict %v", res.Verdict)
	}
	if res.Packet.Calc.Result != 18 {
		t.Errorf("SUB over chain: result = %d, want 18", res.Packet.Calc.Result)
	}
	if res.Packet.Shim != nil {
		t.Error("shim leaked to the external network")
	}
}

// TestChainVsRecirculationEquivalence: the hh program (2 passes) behaves
// identically on a 2-switch chain and on a single recirculating switch.
func TestChainVsRecirculationEquivalence(t *testing.T) {
	spec, _ := programs.Get("hh")
	src := spec.Source("hh", programs.Params{MemWords: 4096, Elastic: 2})

	// Chain target.
	ch := newChain(t, 2)
	if _, err := ch.Deploy(src); err != nil {
		t.Fatalf("chain deploy: %v", err)
	}
	// Recirculation target.
	loop := rmt.New(rmt.DefaultConfig())
	pl, err := dataplane.Provision(loop)
	if err != nil {
		t.Fatal(err)
	}
	comp := core.NewCompiler(pl, core.DefaultOptions())
	if _, err := comp.Link(context.Background(), src); err != nil {
		t.Fatalf("loop deploy: %v", err)
	}

	elephant := pkt.FiveTuple{SrcIP: pkt.IP(10, 0, 1, 1), DstIP: pkt.IP(10, 2, 0, 1), SrcPort: 1111, DstPort: 80, Proto: pkt.ProtoTCP}
	for i := 0; i < 1100; i++ {
		ch.Inject(pkt.NewTCP(elephant, pkt.TCPAck, 300), 2)
		loop.Inject(pkt.NewTCP(elephant, pkt.TCPAck, 300), 2)
	}
	chainReports := 0
	for _, sw := range ch.Switches {
		chainReports += len(sw.DrainCPU())
	}
	loopReports := len(loop.DrainCPU())
	if chainReports != 1 || loopReports != 1 {
		t.Errorf("reports: chain %d, loop %d, want 1 each", chainReports, loopReports)
	}
}

// TestMemLinkRejectedOnChain: sequential accesses to one virtual memory
// cannot span switches (the paper's constraint-(5) adjustment).
func TestMemLinkRejectedOnChain(t *testing.T) {
	ch := newChain(t, 2)
	src := `
@ m 256
program seq(<hdr.ipv4.dst, 1, 0xff>) {
    LOADI(mar, 0);
    MEMADD(m);
    LOADI(mar, 1);
    MEMREAD(m);
}
`
	_, err := ch.Deploy(src)
	if err == nil {
		t.Fatal("memory-linked program deployed on a chain")
	}
}

// TestChainOverflow: a chain shorter than a program's pass requirement
// reports the equivalent of recirculation overflow at deploy time.
func TestChainOverflow(t *testing.T) {
	ch := newChain(t, 1) // single switch, no recirculation allowed
	spec, _ := programs.Get("calc")
	if _, err := ch.Deploy(spec.DefaultSource()); err == nil {
		t.Fatal("two-pass program deployed on a one-switch chain")
	}
}

// TestChainRevokeFreesAllSwitches: a revoke returns resources on every hop.
func TestChainRevokeFreesAllSwitches(t *testing.T) {
	ch := newChain(t, 2)
	spec, _ := programs.Get("calc")
	if _, err := ch.Deploy(spec.DefaultSource()); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.Compiler.Revoke("calc"); err != nil {
		t.Fatal(err)
	}
	for i, sw := range ch.Switches {
		for _, tbl := range sw.Tables() {
			for _, e := range tbl.Entries() {
				if e.Owner == "calc" {
					t.Errorf("switch %d: entry of calc survived revoke", i)
				}
			}
		}
	}
	// Redeploy works (PID and resources were released).
	if _, err := ch.Deploy(spec.DefaultSource()); err != nil {
		t.Fatalf("redeploy: %v", err)
	}
}

// TestChainNoThroughputLoss: unlike recirculation, a chain consumes no
// loopback bandwidth — the first switch records zero recirculated bytes.
func TestChainNoThroughputLoss(t *testing.T) {
	ch := newChain(t, 2)
	spec, _ := programs.Get("calc")
	if _, err := ch.Deploy(spec.DefaultSource()); err != nil {
		t.Fatal(err)
	}
	flow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: pkt.PortCalculator, Proto: pkt.ProtoUDP}
	for i := 0; i < 100; i++ {
		ch.Inject(pkt.NewCalc(flow, pkt.CalcSub, uint32(i+100), 7), 1)
	}
	for i, sw := range ch.Switches {
		if p, _ := sw.RecircStats(); p != 0 {
			t.Errorf("switch %d recirculated %d packets", i, p)
		}
	}
}
