package core

import (
	"context"
	"testing"

	"p4runpro/internal/dataplane"
	"p4runpro/internal/pkt"
	"p4runpro/internal/rmt"
)

// cacheSrc mirrors the paper's Figure 2 program.
const cacheSrc = `
@ mem1 1024
program cache(<hdr.udp.dst_port, 7777, 0xffff>) {
    EXTRACT(hdr.nc.op, har);
    EXTRACT(hdr.nc.key1, sar);
    EXTRACT(hdr.nc.key2, mar);
    BRANCH:
    case(<har, 1, 0xffffffff>, <sar, 0x8888, 0xffffffff>, <mar, 0, 0xffffffff>) {
        RETURN;
        LOADI(mar, 512);
        MEMREAD(mem1);
        MODIFY(hdr.nc.value, sar);
    }
    case(<har, 2, 0xffffffff>, <sar, 0x8888, 0xffffffff>, <mar, 0, 0xffffffff>) {
        DROP;
        LOADI(mar, 512);
        EXTRACT(hdr.nc.val, sar);
        MEMWRITE(mem1);
    };
    FORWARD(32);
}
`

func newStack(t testing.TB) (*rmt.Switch, *Compiler) {
	t.Helper()
	sw := rmt.New(rmt.DefaultConfig())
	pl, err := dataplane.Provision(sw)
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	return sw, NewCompiler(pl, DefaultOptions())
}

func linkCache(t testing.TB, c *Compiler) *LinkedProgram {
	t.Helper()
	lps, err := c.Link(context.Background(), cacheSrc)
	if err != nil {
		t.Fatalf("Link(cache): %v", err)
	}
	return lps[0]
}

func ncFlow() pkt.FiveTuple {
	return pkt.FiveTuple{
		SrcIP: pkt.IP(10, 0, 0, 1), DstIP: pkt.IP(10, 0, 0, 2),
		SrcPort: 5555, DstPort: pkt.PortNetCache, Proto: pkt.ProtoUDP,
	}
}

// TestCacheEndToEnd exercises the Figure 2/3 flow: a cache-write packet is
// dropped but stores its value; a cache-read hit is reflected carrying the
// value; a cache miss is forwarded to the server port.
func TestCacheEndToEnd(t *testing.T) {
	sw, c := newStack(t)
	lp := linkCache(t, c)

	if lp.TP.L() != 10 {
		t.Errorf("cache L = %d, want 10", lp.TP.L())
	}

	// Cache write: op=2, key=0x8888, value=99.
	w := sw.Inject(pkt.NewNC(ncFlow(), pkt.NCWrite, 0x8888, 99), 1)
	if w.Verdict != rmt.VerdictDropped {
		t.Fatalf("write verdict = %v, want dropped", w.Verdict)
	}

	// Cache read hit: reflected with the stored value.
	rd := pkt.NewNC(ncFlow(), pkt.NCRead, 0x8888, 0)
	r := sw.Inject(rd, 1)
	if r.Verdict != rmt.VerdictReflected {
		t.Fatalf("read verdict = %v, want reflected", r.Verdict)
	}
	if rd.NC.Value != 99 {
		t.Errorf("read value = %d, want 99", rd.NC.Value)
	}
	if r.OutPort != 1 {
		t.Errorf("reflected out port = %d, want ingress port 1", r.OutPort)
	}

	// Cache miss: forwarded to the server behind port 32.
	m := sw.Inject(pkt.NewNC(ncFlow(), pkt.NCRead, 0x1234, 0), 1)
	if m.Verdict != rmt.VerdictForwarded || m.OutPort != 32 {
		t.Fatalf("miss = %v port %d, want forwarded to 32", m.Verdict, m.OutPort)
	}

	// Memory truly holds the value at virtual address 512.
	blk := lp.Blocks()["mem1"]
	arr, err := c.Plane.Array(blk.RPB)
	if err != nil {
		t.Fatal(err)
	}
	v, err := arr.Peek(blk.Start + 512)
	if err != nil {
		t.Fatal(err)
	}
	if v != 99 {
		t.Errorf("memory[512] = %d, want 99", v)
	}
}

// TestUnfilteredTrafficUntouched: packets that match no program's filters
// get no decision (and would fall to the default route in deployment).
func TestUnfilteredTrafficUntouched(t *testing.T) {
	sw, c := newStack(t)
	linkCache(t, c)
	other := pkt.NewUDP(pkt.FiveTuple{
		SrcIP: pkt.IP(10, 0, 0, 1), DstIP: pkt.IP(10, 0, 0, 2),
		SrcPort: 1, DstPort: 9, Proto: pkt.ProtoUDP,
	}, 200)
	res := sw.Inject(other, 1)
	if res.Verdict != rmt.VerdictNoDecision {
		t.Errorf("verdict = %v, want no-decision", res.Verdict)
	}
}

// TestLinkRevokeRoundTrip: revoking restores the exact prior resource state
// and program behaviour stops atomically.
func TestLinkRevokeRoundTrip(t *testing.T) {
	sw, c := newStack(t)

	memBefore, entBefore := c.Mgr.TotalUtilization()
	lp := linkCache(t, c)
	if lp.Stats.EntryCount == 0 {
		t.Fatal("no entries installed")
	}
	memDuring, entDuring := c.Mgr.TotalUtilization()
	if memDuring <= memBefore || entDuring <= entBefore {
		t.Errorf("utilization did not rise: mem %f->%f entries %f->%f", memBefore, memDuring, entBefore, entDuring)
	}

	// Store a value so revocation must reset it.
	sw.Inject(pkt.NewNC(ncFlow(), pkt.NCWrite, 0x8888, 7), 1)
	blk := lp.Blocks()["mem1"]

	st, err := c.Revoke("cache")
	if err != nil {
		t.Fatalf("Revoke: %v", err)
	}
	if st.EntriesDeleted != lp.Stats.EntryCount {
		t.Errorf("deleted %d entries, installed %d", st.EntriesDeleted, lp.Stats.EntryCount)
	}
	if st.MemWordsReset != 1024 {
		t.Errorf("reset %d words, want 1024", st.MemWordsReset)
	}

	memAfter, entAfter := c.Mgr.TotalUtilization()
	if memAfter != memBefore || entAfter != entBefore {
		t.Errorf("utilization not restored: mem %f->%f entries %f->%f", memBefore, memAfter, entBefore, entAfter)
	}

	// The stored value was reset before the memory became reusable.
	arr, _ := c.Plane.Array(blk.RPB)
	if v, _ := arr.Peek(blk.Start + 512); v != 0 {
		t.Errorf("memory not reset: %d", v)
	}

	// Program behaviour is gone: the read now matches nothing.
	res := sw.Inject(pkt.NewNC(ncFlow(), pkt.NCRead, 0x8888, 0), 1)
	if res.Verdict != rmt.VerdictNoDecision {
		t.Errorf("after revoke verdict = %v, want no-decision", res.Verdict)
	}

	// Relink works and reuses the freed resources.
	if _, err := c.Link(context.Background(), cacheSrc); err != nil {
		t.Fatalf("relink: %v", err)
	}
}

// TestAllocationRespectsConstraints verifies the §4.3 families on the cache
// solution: strict increase, forwarding in ingress, entries within capacity.
func TestAllocationRespectsConstraints(t *testing.T) {
	_, c := newStack(t)
	lp := linkCache(t, c)
	prev := 0
	for _, pl := range lp.Alloc.Placements {
		if pl.Logical <= prev {
			t.Errorf("depth %d logical %d not increasing after %d", pl.Depth, pl.Logical, prev)
		}
		prev = pl.Logical
		if g, _, _ := c.Plane.RPBStage(pl.RPB); lp.TP.ForwardingAt(pl.Depth) && g != rmt.Ingress {
			t.Errorf("forwarding depth %d placed in egress RPB %d", pl.Depth, pl.RPB)
		}
		if pl.Pass > c.Opt.MaxRecirc {
			t.Errorf("depth %d uses pass %d > R", pl.Depth, pl.Pass)
		}
	}
}

// TestDuplicateLinkRejected: linking the same program name twice fails.
func TestDuplicateLinkRejected(t *testing.T) {
	_, c := newStack(t)
	linkCache(t, c)
	if _, err := c.Link(context.Background(), cacheSrc); err == nil {
		t.Fatal("duplicate link succeeded")
	}
}
