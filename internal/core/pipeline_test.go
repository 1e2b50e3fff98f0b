package core

import (
	"context"
	"testing"

	"p4runpro/internal/pkt"
	"p4runpro/internal/rmt"
)

// TestSupportiveRegisterThroughPipeline runs a program whose ADDI needs a
// supportive register that stays live (a BRANCH follows), so BACKUP/RESTORE
// entries execute on the real pipeline and the register survives.
func TestSupportiveRegisterThroughPipeline(t *testing.T) {
	sw, c := newStack(t)
	src := `
program addi(<hdr.udp.dst_port, 9998, 0xffff>) {
    EXTRACT(hdr.calc.a, sar);  // sar = a
    EXTRACT(hdr.calc.b, har);  // har = b (the supportive register's value)
    ADDI(sar, 100);            // uses har as supportive: backup/restore
    BRANCH:
    case(<sar, 105, 0xffffffff>) {
        MODIFY(hdr.calc.res, har); // har must still hold b here
        RETURN;
    };
    DROP;
}
`
	if _, err := c.Link(context.Background(), src); err != nil {
		t.Fatalf("link: %v", err)
	}
	flow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: pkt.PortCalculator, Proto: pkt.ProtoUDP}
	p := pkt.NewCalc(flow, 0, 5, 77) // a=5, b=77; sar becomes 105
	res := sw.Inject(p, 1)
	if res.Verdict != rmt.VerdictReflected {
		t.Fatalf("verdict %v (ADDI or BRANCH broken)", res.Verdict)
	}
	if p.Calc.Result != 77 {
		t.Errorf("supportive register clobbered: res = %d, want 77", p.Calc.Result)
	}
	// A non-matching value takes the miss path.
	q := pkt.NewCalc(flow, 0, 6, 77)
	if res := sw.Inject(q, 1); res.Verdict != rmt.VerdictDropped {
		t.Errorf("miss path verdict %v", res.Verdict)
	}
}

// TestMultiProgramFile: a single source file can declare several programs
// sharing memory declarations; each links independently.
func TestMultiProgramFile(t *testing.T) {
	sw, c := newStack(t)
	src := `
@ shared 256
program first(<hdr.udp.dst_port, 1111, 0xffff>) {
    LOADI(sar, 1);
    HASH_5_TUPLE_MEM(shared);
    MEMADD(shared);
}
program second(<hdr.udp.dst_port, 2222, 0xffff>) {
    LOADI(sar, 1);
    HASH_5_TUPLE_MEM(shared);
    MEMADD(shared);
}
`
	lps, err := c.Link(context.Background(), src)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	if len(lps) != 2 {
		t.Fatalf("linked %d programs", len(lps))
	}
	// Each program gets its own physical block despite the shared
	// declaration name — isolation by program, not by identifier.
	b1 := lps[0].Blocks()["shared"]
	b2 := lps[1].Blocks()["shared"]
	if b1.RPB == b2.RPB && b1.Start == b2.Start {
		t.Fatalf("programs share physical memory: %+v vs %+v", b1, b2)
	}
	// Count through both programs' data paths.
	mk := func(port uint16) *pkt.Packet {
		return pkt.NewUDP(pkt.FiveTuple{SrcIP: 7, DstIP: 8, SrcPort: 9, DstPort: port, Proto: pkt.ProtoUDP}, 100)
	}
	sw.Inject(mk(1111), 1)
	sw.Inject(mk(1111), 1)
	sw.Inject(mk(2222), 1)
	arr1, _ := c.Plane.Array(b1.RPB)
	sum := func(arr *rmt.RegisterArray, start uint32) uint32 {
		vals, _ := arr.Snapshot(start, 256)
		var s uint32
		for _, v := range vals {
			s += v
		}
		return s
	}
	arr2, _ := c.Plane.Array(b2.RPB)
	if got := sum(arr1, b1.Start); got != 2 {
		t.Errorf("first program counted %d, want 2", got)
	}
	if got := sum(arr2, b2.Start); got != 1 {
		t.Errorf("second program counted %d, want 1", got)
	}
}

// TestLinkPartialFileFailure: when the second program of a file cannot
// link, the first remains linked (programs are independent units).
func TestLinkPartialFileFailure(t *testing.T) {
	_, c := newStack(t)
	src := `
program ok(<hdr.udp.dst_port, 1111, 0xffff>) {
    DROP;
}
program toodeep(<hdr.udp.dst_port, 2222, 0xffff>) {
    LOADI(mar, 0);
    LOADI(mar, 1);
    LOADI(mar, 2);
    LOADI(mar, 3);
    LOADI(mar, 4);
    LOADI(mar, 5);
    LOADI(mar, 6);
    LOADI(mar, 7);
    LOADI(mar, 8);
    LOADI(mar, 9);
    FORWARD(1);
    LOADI(mar, 0);
    LOADI(mar, 1);
    LOADI(mar, 2);
    LOADI(mar, 3);
    LOADI(mar, 4);
    LOADI(mar, 5);
    LOADI(mar, 6);
    LOADI(mar, 7);
    LOADI(mar, 8);
    LOADI(mar, 9);
    FORWARD(2);
    LOADI(mar, 0);
    LOADI(mar, 1);
    LOADI(mar, 2);
    LOADI(mar, 3);
    LOADI(mar, 4);
    LOADI(mar, 5);
    LOADI(mar, 6);
    LOADI(mar, 7);
    LOADI(mar, 8);
    LOADI(mar, 9);
    FORWARD(3);
    FORWARD(4);
    FORWARD(5);
}
`
	lps, err := c.Link(context.Background(), src)
	if err == nil {
		t.Fatal("34-deep program with forwarding past both ingress windows linked")
	}
	if len(lps) != 1 || lps[0].Name != "ok" {
		t.Fatalf("partial result = %v", lps)
	}
	if _, linked := c.Linked("ok"); !linked {
		t.Error("first program lost")
	}
	if _, linked := c.Linked("toodeep"); linked {
		t.Error("failed program linked")
	}
}
