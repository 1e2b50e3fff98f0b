package fabric

import (
	"strings"
	"sync"
	"testing"
	"time"

	"p4runpro/internal/faults"
	"p4runpro/internal/pkt"
	"p4runpro/internal/rmt"
	"p4runpro/internal/traffic"
)

// fwdSwitch builds a raw switch whose single wildcard table forwards every
// packet to a fixed egress port — the minimal routing behaviour fabric
// tests need.
func fwdSwitch(t testing.TB, egress int) *rmt.Switch {
	t.Helper()
	sw := rmt.New(rmt.DefaultConfig())
	fwdTable(t, sw, egress)
	return sw
}

func fwdTable(t testing.TB, sw *rmt.Switch, egress int) {
	t.Helper()
	tbl, err := sw.AddTable("fwd", rmt.Ingress, 0, 8, 1, func(p *rmt.PHV) []uint32 {
		return p.KeyScratch(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.RegisterAction("set_egress", 1, func(p *rmt.PHV, params []uint32) {
		p.Meta.EgressSpec = int(params[0])
	}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetDefault("set_egress", uint32(egress)); err != nil {
		t.Fatal(err)
	}
}

func testPacket() *pkt.Packet {
	return pkt.NewUDP(pkt.FiveTuple{
		SrcIP: pkt.IP(10, 0, 0, 1), DstIP: pkt.IP(10, 2, 0, 1),
		SrcPort: 1234, DstPort: 80, Proto: pkt.ProtoUDP,
	}, 256)
}

// TestChainForwarding drives a packet down a 3-node chain: every node
// forwards toward its successor, the last node emits on an unwired edge
// port, and the fabric's delivery, per-node, and per-link accounting must
// all agree.
func TestChainForwarding(t *testing.T) {
	f := New(Options{})
	for i, egress := range []int{f.ChainNextPort(), f.ChainNextPort(), 2} {
		if _, err := f.Add(nodeName("c", i), fwdSwitch(t, egress)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WireChain("c", 3, rmt.DefaultConfig(), 0); err != nil {
		t.Fatal(err)
	}

	d, err := f.Inject("c0", testPacket(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Delivered != 1 || d.Dropped != 0 || d.TTLExpired != 0 {
		t.Fatalf("delivery %+v, want 1 delivered", d)
	}
	if d.Hops != 2 {
		t.Fatalf("hops %d, want 2", d.Hops)
	}

	// Per-link accounting: both forward links crossed exactly once.
	for _, from := range []Endpoint{{"c0", f.ChainNextPort()}, {"c1", f.ChainNextPort()}} {
		lk, ok := f.Link(from.Node, from.Port)
		if !ok {
			t.Fatalf("link at %s not wired", from)
		}
		tx, rx, drops := lk.Stats()
		if tx != 1 || rx != 1 || drops != 0 {
			t.Errorf("link %s tx/rx/drops %d/%d/%d, want 1/1/0", lk, tx, rx, drops)
		}
	}
	// The reverse-direction links stay idle.
	lk, _ := f.Link("c1", f.ChainPrevPort())
	if tx, _, _ := lk.Stats(); tx != 0 {
		t.Errorf("reverse link %s tx %d, want 0", lk, tx)
	}
	// Node accounting: delivery happened at c2, on edge port 2.
	c2, _ := f.Node("c2")
	if got := c2.SW.PortStats(2).TxPackets; got != 1 {
		t.Errorf("c2 edge port tx %d, want 1", got)
	}
}

func nodeName(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}

// TestRingLoopProtection is the loop-safety satellite: a 3-node ring whose
// every node blindly forwards clockwise, so no packet can ever leave.
// Concurrent injections must all terminate at the hop limit — counted as
// TTL-expired, no hang — under the race detector.
func TestRingLoopProtection(t *testing.T) {
	f := New(Options{TTL: 8})
	for i := 0; i < 3; i++ {
		if _, err := f.Add(nodeName("r", i), fwdSwitch(t, f.ChainNextPort())); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := f.Connect(nodeName("r", i), f.ChainNextPort(), nodeName("r", (i+1)%3), f.ChainPrevPort(), 0); err != nil {
			t.Fatal(err)
		}
	}

	const workers, perWorker = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				d, err := f.Inject("r0", testPacket(), 1)
				if err != nil {
					panic(err)
				}
				if d.TTLExpired != 1 || d.Delivered != 0 {
					panic("looping packet escaped the ring")
				}
			}
		}()
	}
	wg.Wait()

	const want = workers * perWorker
	if got := f.ttlExpired.Load(); got != want {
		t.Fatalf("ttl_expired %d, want %d", got, want)
	}
	if got := f.delivered.Load(); got != 0 {
		t.Fatalf("delivered %d, want 0", got)
	}
	// Each packet crosses exactly TTL links before expiring; total node
	// drop counters account every expiry.
	var drops uint64
	for _, name := range f.Nodes() {
		n, _ := f.Node(name)
		drops += n.dropped.Load()
	}
	if drops != want {
		t.Fatalf("node drop sum %d, want %d", drops, want)
	}
	if !strings.Contains(f.Obs.Prometheus(), "p4runpro_fabric_ttl_expired_total 100") {
		t.Error("ttl_expired counter missing from metrics exposition")
	}
}

// TestLinkLoss arms a link's fault point and checks the loss is charged to
// the link and the fabric, not to a switch verdict.
func TestLinkLoss(t *testing.T) {
	t.Cleanup(faults.DisarmAll)
	f := New(Options{})
	if _, err := f.Add("a0", fwdSwitch(t, f.ChainNextPort())); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Add("a1", fwdSwitch(t, 2)); err != nil {
		t.Fatal(err)
	}
	if err := f.WireChain("a", 2, rmt.DefaultConfig(), 0); err != nil {
		t.Fatal(err)
	}
	lk, _ := f.Link("a0", f.ChainNextPort())
	pt, ok := faults.Lookup(lk.LossPoint())
	if !ok {
		t.Fatalf("loss point %q not registered", lk.LossPoint())
	}
	pt.FailNth(2, nil)

	first, _ := f.Inject("a0", testPacket(), 1)
	lost, _ := f.Inject("a0", testPacket(), 1)
	third, _ := f.Inject("a0", testPacket(), 1)
	if first.Delivered != 1 || third.Delivered != 1 {
		t.Fatalf("surrounding packets not delivered: %+v %+v", first, third)
	}
	if lost.LinkLost != 1 || lost.Delivered != 0 {
		t.Fatalf("second packet %+v, want link-lost", lost)
	}
	tx, rx, drops := lk.Stats()
	if tx != 3 || rx != 2 || drops != 1 {
		t.Fatalf("link tx/rx/drops %d/%d/%d, want 3/2/1", tx, rx, drops)
	}
	if got := f.linkLost.Load(); got != 1 {
		t.Fatalf("fabric link_lost %d, want 1", got)
	}
}

// TestPathTraceStitching samples every packet and checks the stitched trace
// carries one postcard per hop under a single fabric-assigned path ID, with
// link latencies accumulated.
func TestPathTraceStitching(t *testing.T) {
	f := New(Options{PathSampleEvery: 1})
	for i, egress := range []int{f.ChainNextPort(), f.ChainNextPort(), 2} {
		if _, err := f.Add(nodeName("p", i), fwdSwitch(t, egress)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WireChain("p", 3, rmt.DefaultConfig(), 10*time.Microsecond); err != nil {
		t.Fatal(err)
	}

	d, err := f.Inject("p0", testPacket(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := d.Trace
	if tr == nil {
		t.Fatal("packet not path-sampled at PathSampleEvery=1")
	}
	if !tr.Delivered() {
		t.Fatalf("trace status %v, want delivered", tr.Status)
	}
	want := []string{"p0", "p1", "p2"}
	got := tr.Nodes()
	if len(got) != len(want) {
		t.Fatalf("trace nodes %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("trace nodes %v, want %v", got, want)
		}
	}
	for i, h := range tr.Hops {
		if h.Postcard == nil {
			t.Fatalf("hop %d has no postcard", i)
		}
		if h.Postcard.PathID != tr.ID {
			t.Fatalf("hop %d postcard path id %d, want %d", i, h.Postcard.PathID, tr.ID)
		}
		if h.Verdict != rmt.VerdictForwarded {
			t.Fatalf("hop %d verdict %v", i, h.Verdict)
		}
	}
	if tr.Latency != 20*time.Microsecond {
		t.Errorf("trace latency %v, want 20µs (2 links x 10µs)", tr.Latency)
	}
	if tr.ExitPort != 2 {
		t.Errorf("exit port %d, want 2", tr.ExitPort)
	}
	if tr.ID != 1 {
		t.Errorf("trace path id %d, want 1 (the fabric's first)", tr.ID)
	}
	if s := tr.String(); !strings.Contains(s, "p0:1 -> p1:") || !strings.Contains(s, "delivered") {
		t.Errorf("trace string %q", s)
	}
}

// TestPathTracedPacketsKeepArrivalOrder: path-traced packets ride their
// node's burst, so within one wave every switch sees one flow's packets —
// traced or not — in edge arrival order, and each traced packet still gets
// a postcard at every hop.
func TestPathTracedPacketsKeepArrivalOrder(t *testing.T) {
	f := New(Options{PathSampleEvery: 3})
	seen := map[string][]*pkt.Packet{}
	for i, egress := range []int{f.ChainNextPort(), 2} {
		name := nodeName("o", i)
		sw := fwdSwitch(t, egress)
		sw.SetParseHook(func(p *rmt.PHV) { seen[name] = append(seen[name], p.Packet) })
		if _, err := f.Add(name, sw); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.WireChain("o", 2, rmt.DefaultConfig(), 0); err != nil {
		t.Fatal(err)
	}
	tr := &traffic.Trace{}
	for i := 0; i < 12; i++ {
		tr.Events = append(tr.Events, traffic.Event{AtMs: float64(i), Pkt: testPacket(), Port: 1})
	}
	res, err := f.Replay(tr, nil, ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 12 || len(res.Traces) != 4 {
		t.Fatalf("delivered %d, traced %d; want 12 and 4", res.Delivered, len(res.Traces))
	}
	for _, name := range []string{"o0", "o1"} {
		if len(seen[name]) != len(tr.Events) {
			t.Fatalf("%s saw %d packets, want %d", name, len(seen[name]), len(tr.Events))
		}
		for i, ev := range tr.Events {
			if seen[name][i] != ev.Pkt {
				t.Fatalf("%s: packet %d arrived out of edge order", name, i)
			}
		}
	}
	for _, ptr := range res.Traces {
		if len(ptr.Hops) != 2 || ptr.Hops[0].Postcard == nil || ptr.Hops[1].Postcard == nil || ptr.Hops[1].Postcard.PathID != ptr.ID {
			t.Fatalf("trace %s missing per-hop postcards", ptr)
		}
	}
}

// mcastSwitch builds a raw switch that multicasts every packet to ports.
func mcastSwitch(t testing.TB, ports ...int) *rmt.Switch {
	t.Helper()
	sw := rmt.New(rmt.DefaultConfig())
	tbl, err := sw.AddTable("mc", rmt.Ingress, 0, 8, 1, func(p *rmt.PHV) []uint32 {
		return p.KeyScratch(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.RegisterAction("mcast", 0, func(p *rmt.PHV, _ []uint32) {
		p.Meta.McastGroup = 5
	}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetDefault("mcast"); err != nil {
		t.Fatal(err)
	}
	sw.SetMulticastGroup(5, ports)
	return sw
}

// TestMulticastFanout wires a root to two edge nodes and multicasts across
// both links: each copy must be delivered independently.
func TestMulticastFanout(t *testing.T) {
	f := New(Options{})
	if _, err := f.Add("root", mcastSwitch(t, 48, 49)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"e0", "e1"} {
		if _, err := f.Add(name, fwdSwitch(t, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Connect("root", 48, "e0", 48, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Connect("root", 49, "e1", 48, 0); err != nil {
		t.Fatal(err)
	}

	d, err := f.Inject("root", testPacket(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Delivered != 2 {
		t.Fatalf("delivery %+v, want 2 delivered copies", d)
	}
	for _, name := range []string{"e0", "e1"} {
		n, _ := f.Node(name)
		if got := n.SW.PortStats(2).TxPackets; got != 1 {
			t.Errorf("%s edge tx %d, want 1", name, got)
		}
	}
}

// TestReusedScratchFlushesEveryNode: the engine's wave buffers are reused
// across calls (every Replay batch after the first, every Inject after the
// first). A node early in a wave can emit more hops than the wave holds; the
// next wave's hops must not overwrite the wave still being flushed, or the
// nodes after it are never flushed and their packets are lost.
func TestReusedScratchFlushesEveryNode(t *testing.T) {
	f := New(Options{})
	for name, sw := range map[string]*rmt.Switch{
		"in0": fwdSwitch(t, 48), "in1": fwdSwitch(t, 48),
		"mc": mcastSwitch(t, 49, 50), "fw": fwdSwitch(t, 2), "out": fwdSwitch(t, 2),
	} {
		if _, err := f.Add(name, sw); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range []struct {
		a  string
		ap int
		b  string
		bp int
	}{{"in0", 48, "mc", 48}, {"in1", 48, "fw", 48}, {"mc", 49, "out", 48}, {"mc", 50, "out", 49}} {
		if _, err := f.ConnectOneWay(l.a, l.ap, l.b, l.bp, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Each batch is one in0 packet (two copies out of mc) and one in1
	// packet (one out of fw); its second wave is [mc, fw].
	tr := &traffic.Trace{}
	for i := 0; i < 8; i++ {
		tr.Events = append(tr.Events, traffic.Event{AtMs: float64(i), Pkt: testPacket(), Port: 1, Node: nodeName("in", i%2)})
	}
	res, err := f.Replay(tr, nil, ReplayOptions{Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 12 {
		t.Fatalf("delivered %d copies, want 12 (8 from mc, 4 from fw)", res.Delivered)
	}
	spareHoldsNothing(t, f, "after Replay")
	if d, err := f.Inject("in0", testPacket(), 1); err != nil || d.Delivered != 2 {
		t.Fatalf("Inject delivered %d copies (%v), want 2", d.Delivered, err)
	}
	spareHoldsNothing(t, f, "after Inject")
}

// spareHoldsNothing checks that the scratch a finished call left in f.spare
// references no packet, result or trace, over the whole capacity of every
// buffer.
func spareHoldsNothing(t *testing.T, f *Fabric, when string) {
	t.Helper()
	s := f.spare.Load()
	if s == nil {
		t.Fatalf("%s: no spare scratch", when)
	}
	bufs := [][]hop{s.edge, s.cur, s.next}
	for _, b := range s.free {
		bufs = append(bufs, b)
	}
	for _, b := range bufs {
		for i, h := range b[:cap(b)] {
			if h != (hop{}) {
				t.Fatalf("%s: wave buffer slot %d still holds %+v", when, i, h)
			}
		}
	}
	for i, it := range s.items[:cap(s.items)] {
		if it.Pkt != nil || it.Res.Packet != nil || it.Res.OutPorts != nil || it.Postcard != nil {
			t.Fatalf("%s: burst item %d still holds %+v", when, i, it)
		}
	}
	if len(s.byNode) != 0 {
		t.Fatalf("%s: %d nodes still pending", when, len(s.byNode))
	}
}

// TestWiringErrors covers the topology guard rails.
func TestWiringErrors(t *testing.T) {
	f := New(Options{})
	if _, err := f.Add("x", fwdSwitch(t, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Add("x", fwdSwitch(t, 0)); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := f.Add("y", fwdSwitch(t, 0)); err != nil {
		t.Fatal(err)
	}
	if err := f.Connect("x", 48, "y", 48, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.ConnectOneWay("x", 48, "y", 50, 0); err == nil {
		t.Error("double-wired port accepted")
	}
	if err := f.Connect("x", 50, "zz", 48, 0); err == nil {
		t.Error("link to unknown node accepted")
	}
	if _, err := f.ConnectOneWay("x", -1, "y", 51, 0); err == nil {
		t.Error("negative port accepted")
	}
	if l, ok := f.Link("x", 48); !ok || l.To != (Endpoint{"y", 48}) || len(f.Links()) != 2 {
		t.Errorf("Link(x, 48) = %v, %v; %d links", l, ok, len(f.Links()))
	}
	if _, err := f.Inject("zz", testPacket(), 1); err == nil {
		t.Error("inject at unknown node accepted")
	}
}
