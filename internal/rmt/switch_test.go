package rmt

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"p4runpro/internal/pkt"
)

func TestSALUOperations(t *testing.T) {
	arr := NewRegisterArray(Ingress, 0, 8)
	cases := []struct {
		op        SALUOp
		init      uint32
		operand   uint32
		wantRes   uint32
		wantFinal uint32
	}{
		{SALURead, 5, 99, 5, 5},
		{SALUWrite, 5, 99, 99, 99},
		{SALUAdd, 5, 3, 8, 8},
		{SALUSub, 5, 3, 2, 2},
		{SALUSub, 3, 5, 0xFFFFFFFE, 0xFFFFFFFE}, // wraps
		{SALUAnd, 0b1100, 0b1010, 0b1000, 0b1000},
		{SALUOr, 0b1100, 0b0010, 0b1100, 0b1110}, // returns OLD value
		{SALUMax, 5, 9, 5, 9},                    // returns old, stores max
		{SALUMax, 9, 5, 9, 9},
	}
	for i, c := range cases {
		if err := arr.Poke(0, c.init); err != nil {
			t.Fatal(err)
		}
		res, err := arr.Execute(c.op, 0, c.operand)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if res != c.wantRes {
			t.Errorf("case %d (%v): result %d, want %d", i, c.op, res, c.wantRes)
		}
		final, _ := arr.Peek(0)
		if final != c.wantFinal {
			t.Errorf("case %d (%v): memory %d, want %d", i, c.op, final, c.wantFinal)
		}
	}
}

func TestSALUBounds(t *testing.T) {
	arr := NewRegisterArray(Egress, 3, 4)
	if _, err := arr.Execute(SALURead, 4, 0); err == nil {
		t.Error("out-of-range execute accepted")
	}
	if _, err := arr.Peek(99); err == nil {
		t.Error("out-of-range peek accepted")
	}
	if err := arr.Poke(99, 1); err == nil {
		t.Error("out-of-range poke accepted")
	}
	if err := arr.ResetRange(2, 3); err == nil {
		t.Error("out-of-range reset accepted")
	}
	if _, err := arr.Snapshot(3, 2); err == nil {
		t.Error("out-of-range snapshot accepted")
	}
}

func TestSALUResetAndSnapshot(t *testing.T) {
	arr := NewRegisterArray(Ingress, 0, 16)
	for i := uint32(0); i < 16; i++ {
		_ = arr.Poke(i, i+100)
	}
	snap, err := arr.Snapshot(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range snap {
		if v != uint32(i)+104 {
			t.Errorf("snap[%d] = %d", i, v)
		}
	}
	if err := arr.ResetRange(4, 4); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 16; i++ {
		v, _ := arr.Peek(i)
		inReset := i >= 4 && i < 8
		if inReset && v != 0 {
			t.Errorf("word %d not reset: %d", i, v)
		}
		if !inReset && v != i+100 {
			t.Errorf("word %d clobbered: %d", i, v)
		}
	}
}

func TestPHVLayoutAccounting(t *testing.T) {
	l := NewPHVLayout(70)
	if err := l.Define("a", 32); err != nil {
		t.Fatal(err)
	}
	if err := l.Define("b", 32); err != nil {
		t.Fatal(err)
	}
	if err := l.Define("a", 1); err == nil {
		t.Error("duplicate field accepted")
	}
	if err := l.Define("c", 8); err == nil {
		t.Error("over-capacity define accepted")
	}
	if err := l.Define("d", 0); err == nil {
		t.Error("zero-width field accepted")
	}
	if err := l.Define("e", 33); err == nil {
		t.Error("33-bit field accepted")
	}
	if l.Bits() != 64 {
		t.Errorf("Bits = %d", l.Bits())
	}
	if got := l.Fields(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Fields = %v", got)
	}
}

func TestPHVWidthTruncation(t *testing.T) {
	l := NewPHVLayout(4096)
	_ = l.Define("narrow", 8)
	p := NewPHV(l, nil, 0)
	p.Set("narrow", 0x1FF)
	if got := p.Get("narrow"); got != 0xFF {
		t.Errorf("narrow field = %x, want truncation", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("undefined field access did not panic")
		}
	}()
	p.Get("ghost")
}

// testSwitch provisions a tiny program directly on rmt (no dataplane): one
// ingress table that forwards UDP to port 9 and drops TCP, to exercise
// pipeline traversal and the traffic manager.
func testSwitch(t *testing.T) *Switch {
	t.Helper()
	cfg := DefaultConfig()
	sw := New(cfg)
	_ = sw.PHVLayout().Define("scratch", 32)
	tbl, err := sw.AddTable("route", Ingress, 0, 16, 1, func(p *PHV) []uint32 {
		if p.Packet.IP4 == nil {
			return []uint32{0}
		}
		return []uint32{uint32(p.Packet.IP4.Proto)}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.RegisterAction("fwd", 1, func(p *PHV, params []uint32) {
		p.Meta.EgressSpec = int(params[0])
	}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.RegisterAction("drop", 1, func(p *PHV, _ []uint32) {
		p.Meta.Drop = true
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert([]TernaryKey{Exact(pkt.ProtoUDP)}, 0, "fwd", []uint32{9}, "test"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert([]TernaryKey{Exact(pkt.ProtoTCP)}, 0, "drop", nil, "test"); err != nil {
		t.Fatal(err)
	}
	return sw
}

func TestSwitchForwardDropCounters(t *testing.T) {
	sw := testSwitch(t)
	flowU := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: pkt.ProtoUDP}
	flowT := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: pkt.ProtoTCP}

	r := sw.Inject(pkt.NewUDP(flowU, 150), 1)
	if r.Verdict != VerdictForwarded || r.OutPort != 9 || r.Passes != 1 {
		t.Fatalf("udp result %+v", r)
	}
	r = sw.Inject(pkt.NewTCP(flowT, 0, 200), 1)
	if r.Verdict != VerdictDropped {
		t.Fatalf("tcp result %+v", r)
	}
	if st := sw.PortStats(9); st.TxPackets != 1 || st.TxBytes != 150 {
		t.Errorf("port 9 counters %+v", st)
	}
	sw.ResetCounters()
	if st := sw.PortStats(9); st.TxPackets != 0 {
		t.Errorf("counters not reset: %+v", st)
	}
}

func TestOneStatefulAccessPerStage(t *testing.T) {
	cfg := DefaultConfig()
	sw := New(cfg)
	tbl, err := sw.AddTable("mem", Ingress, 2, 4, 1, func(p *PHV) []uint32 { return []uint32{1} })
	if err != nil {
		t.Fatal(err)
	}
	var secondErr error
	if err := tbl.RegisterAction("double", 1, func(p *PHV, _ []uint32) {
		if _, err := sw.AccessMemory(p, SALUAdd, 0, 1); err != nil {
			t.Errorf("first access: %v", err)
		}
		_, secondErr = sw.AccessMemory(p, SALUAdd, 0, 1)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert([]TernaryKey{Exact(1)}, 0, "double", nil, "x"); err != nil {
		t.Fatal(err)
	}
	sw.Inject(pkt.NewUDP(pkt.FiveTuple{Proto: pkt.ProtoUDP}, 100), 0)
	if secondErr == nil {
		t.Fatal("second stateful access in one stage was allowed")
	}
}

func TestRecirculationBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRecirc = 2
	sw := New(cfg)
	tbl, err := sw.AddTable("loop", Ingress, 0, 4, 1, func(p *PHV) []uint32 { return []uint32{1} })
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.RegisterAction("recirc", 1, func(p *PHV, _ []uint32) {
		p.Meta.Recirc = true
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert([]TernaryKey{Exact(1)}, 0, "recirc", nil, "x"); err != nil {
		t.Fatal(err)
	}
	hookCalls := 0
	sw.SetRecircHook(func(*PHV) { hookCalls++ })
	r := sw.Inject(pkt.NewUDP(pkt.FiveTuple{Proto: pkt.ProtoUDP}, 100), 0)
	if r.Verdict != VerdictRecircOverflow {
		t.Fatalf("verdict %v, want overflow (program always recirculates)", r.Verdict)
	}
	if r.Passes != cfg.MaxRecirc+1 {
		t.Errorf("passes = %d, want %d", r.Passes, cfg.MaxRecirc+1)
	}
	if hookCalls != cfg.MaxRecirc {
		t.Errorf("recirc hook calls = %d, want %d", hookCalls, cfg.MaxRecirc)
	}
	if p, b := sw.RecircStats(); p != uint64(cfg.MaxRecirc) || b == 0 {
		t.Errorf("recirc stats = %d/%d", p, b)
	}
}

func TestVerdictPriorities(t *testing.T) {
	// Drop wins over ToCPU, Reflect, and Forward — the deferred-verdict
	// precedence the cache program relies on.
	cfg := DefaultConfig()
	sw := New(cfg)
	tbl, _ := sw.AddTable("all", Ingress, 0, 4, 1, func(p *PHV) []uint32 { return []uint32{1} })
	_ = tbl.RegisterAction("everything", 1, func(p *PHV, _ []uint32) {
		p.Meta.EgressSpec = 5
		p.Meta.Reflect = true
		p.Meta.ToCPU = true
		p.Meta.Drop = true
	})
	if _, err := tbl.Insert([]TernaryKey{Exact(1)}, 0, "everything", nil, "x"); err != nil {
		t.Fatal(err)
	}
	r := sw.Inject(pkt.NewUDP(pkt.FiveTuple{Proto: pkt.ProtoUDP}, 100), 0)
	if r.Verdict != VerdictDropped {
		t.Errorf("verdict %v, want dropped", r.Verdict)
	}
}

func TestCPUQueue(t *testing.T) {
	cfg := DefaultConfig()
	sw := New(cfg)
	tbl, _ := sw.AddTable("rep", Ingress, 0, 4, 1, func(p *PHV) []uint32 { return []uint32{1} })
	_ = tbl.RegisterAction("report", 1, func(p *PHV, _ []uint32) { p.Meta.ToCPU = true })
	if _, err := tbl.Insert([]TernaryKey{Exact(1)}, 0, "report", nil, "x"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		r := sw.Inject(pkt.NewUDP(pkt.FiveTuple{SrcPort: uint16(i), Proto: pkt.ProtoUDP}, 100), 0)
		if r.Verdict != VerdictToCPU {
			t.Fatalf("verdict %v", r.Verdict)
		}
	}
	got := sw.DrainCPU()
	if len(got) != 5 {
		t.Fatalf("cpu queue %d", len(got))
	}
	if len(sw.DrainCPU()) != 0 {
		t.Error("drain not idempotent")
	}
}

func TestProvisionedResources(t *testing.T) {
	sw := testSwitch(t)
	used := sw.Provisioned()
	if used.LogicalTable != 1 || used.TCAMEntries != 16 || used.VLIWSlots != 2 {
		t.Errorf("provisioned = %+v", used)
	}
	if used.SALUs != 1 || used.SRAMWords != sw.Config().MemoryWords {
		t.Errorf("stage resources = %+v", used)
	}
	capac := sw.Capacity()
	if capac.TCAMEntries != 24*2048 || capac.SALUs != 24 {
		t.Errorf("capacity = %+v", capac)
	}
}

// TestRecircLoadModel property-checks the Figure 11 fluid model: loss grows
// with iterations, shrinks with packet size, and zero iterations are free.
func TestRecircLoadModel(t *testing.T) {
	f := func(sz uint16, it uint8) bool {
		size := 64 + int(sz)%1437 // 64..1500
		iter := int(it) % 7
		frac, lat := RecircLoad(size, iter, 16, 100)
		if iter == 0 {
			return frac == 1 && lat == 0
		}
		frac2, lat2 := RecircLoad(size, iter+1, 16, 100)
		fracBig, _ := RecircLoad(size+100, iter, 16, 100)
		return frac > 0 && frac <= 1 &&
			frac2 <= frac && lat2 > lat &&
			fracBig >= frac
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestGressAndVerdictStrings(t *testing.T) {
	if Ingress.String() != "ingress" || Egress.String() != "egress" {
		t.Error("gress strings")
	}
	for v := VerdictForwarded; v <= VerdictRecircOverflow; v++ {
		if v.String() == "" {
			t.Errorf("verdict %d has empty string", int(v))
		}
	}
	for _, op := range []SALUOp{SALURead, SALUWrite, SALUAdd, SALUSub, SALUAnd, SALUOr, SALUMax} {
		if op.String() == "" {
			t.Errorf("op %d has empty string", int(op))
		}
	}
}

func TestAddTableValidation(t *testing.T) {
	sw := New(DefaultConfig())
	if _, err := sw.AddTable("x", Ingress, 99, 4, 1, nil); err == nil {
		t.Error("bad stage accepted")
	}
	if _, err := sw.AddTable("x", Ingress, 0, 4, 1, func(p *PHV) []uint32 { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.AddTable("x", Egress, 0, 4, 1, func(p *PHV) []uint32 { return nil }); err == nil {
		t.Error("duplicate table name accepted")
	}
	if _, ok := sw.Table("x"); !ok {
		t.Error("table lookup failed")
	}
	if len(sw.Tables()) != 1 {
		t.Error("tables listing wrong")
	}
}

// dstSwitch builds a minimal switch: one ingress table matching the IPv4
// destination out of a PHV scratch field (so a test may declare it with
// SetPHVKeyFields), with a forward action and a drop default.
func dstSwitch(t testing.TB) (*Switch, *Table) {
	t.Helper()
	cfg := DefaultConfig()
	sw := New(cfg)
	if err := sw.PHVLayout().Define("dst", 32); err != nil {
		t.Fatal(err)
	}
	sw.SetParseHook(func(p *PHV) {
		if p.Packet != nil && p.Packet.IP4 != nil {
			p.Set("dst", p.Packet.IP4.Dst)
		}
	})
	tbl, err := sw.AddTable("t", Ingress, 0, 64, 1, func(p *PHV) []uint32 {
		k := p.KeyScratch(1)
		k[0] = p.Get("dst")
		return k
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.RegisterAction("fwd", 1, func(p *PHV, params []uint32) {
		p.Meta.EgressSpec = int(params[0])
	}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.RegisterAction("drop", 1, func(p *PHV, _ []uint32) {
		p.Meta.Drop = true
	}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetDefault("drop"); err != nil {
		t.Fatal(err)
	}
	return sw, tbl
}

func dstPkt(dst uint32) *pkt.Packet {
	return pkt.NewUDP(pkt.FiveTuple{SrcIP: 1, DstIP: dst, SrcPort: 3, DstPort: 4, Proto: pkt.ProtoUDP}, 100)
}

// TestInjectBatchMatchesInject checks the batched API yields the same
// results and counters as per-packet injection.
func TestInjectBatchMatchesInject(t *testing.T) {
	mk := func() (*Switch, *Table) {
		sw, tbl := dstSwitch(t)
		if err := tbl.SetPHVKeyFields(sw.PHVLayout(), "dst"); err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.Insert([]TernaryKey{Exact(2)}, 0, "fwd", []uint32{5}, "p"); err != nil {
			t.Fatal(err)
		}
		return sw, tbl
	}
	const n = 100
	swA, _ := mk()
	swB, _ := mk()
	batch := make([]BatchItem, n)
	serial := make([]Result, n)
	for i := 0; i < n; i++ {
		dst := uint32(i % 3)
		serial[i] = swA.Inject(dstPkt(dst), 1)
		batch[i] = BatchItem{Pkt: dstPkt(dst), Port: 1}
	}
	swB.InjectBatch(batch)
	for i := 0; i < n; i++ {
		if batch[i].Res.Verdict != serial[i].Verdict || batch[i].Res.OutPort != serial[i].OutPort {
			t.Fatalf("packet %d: batch %v/%d, serial %v/%d", i,
				batch[i].Res.Verdict, batch[i].Res.OutPort, serial[i].Verdict, serial[i].OutPort)
		}
	}
	ma, mb := swA.Metrics(), swB.Metrics()
	if ma.Packets != mb.Packets || ma.Passes != mb.Passes || ma.Verdicts != mb.Verdicts {
		t.Fatalf("metrics diverge: %+v vs %+v", ma, mb)
	}
}

// TestStageLookupsExactAcrossAddTable: stage lookups are derived from the
// pass counter, and a plan published after traffic carries the earlier
// lookups over, so tables added between bursts count only the passes that
// ran through them.
func TestStageLookupsExactAcrossAddTable(t *testing.T) {
	sw, _ := dstSwitch(t) // one table, ingress stage 0
	for i := 0; i < 10; i++ {
		sw.Inject(dstPkt(2), 1)
	}
	noKeys := func(p *PHV) []uint32 { return p.KeyScratch(1) }
	if _, err := sw.AddTable("t2", Ingress, 0, 4, 1, noKeys); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.AddTable("t3", Egress, 3, 4, 1, noKeys); err != nil {
		t.Fatal(err)
	}
	batch := make([]BatchItem, 5)
	for i := range batch {
		batch[i] = BatchItem{Pkt: dstPkt(2), Port: 1}
	}
	sw.InjectBatch(batch)

	egress3 := sw.Config().IngressStages + 3
	m := sw.Metrics()
	for i, got := range m.StageLookups {
		want := uint64(0)
		switch i {
		case 0:
			want = 10 + 5*2
		case egress3:
			want = 5
		}
		if got != want || sw.StageLookupCount(i) != want {
			t.Errorf("stage %d: %d lookups (StageLookupCount %d), want %d", i, got, sw.StageLookupCount(i), want)
		}
	}
}

// TestReownBetweenBurstsLosesNothing: a burst adds its entry hits when it
// returns, so a Reown between bursts carries every hit to the new owner.
func TestReownBetweenBurstsLosesNothing(t *testing.T) {
	sw, tbl := dstSwitch(t)
	if _, err := tbl.Insert([]TernaryKey{Exact(2)}, 0, "fwd", []uint32{5}, "v1"); err != nil {
		t.Fatal(err)
	}
	burst := func() {
		items := make([]BatchItem, 8)
		for i := range items {
			items[i] = BatchItem{Pkt: dstPkt(2), Port: 1}
		}
		sw.InjectBatch(items)
	}
	burst()
	if n := tbl.Reown("v1", "v2"); n != 1 {
		t.Fatalf("Reown moved %d entries, want 1", n)
	}
	burst()
	if v1, v2 := tbl.OwnerHits("v1"), tbl.OwnerHits("v2"); v1 != 0 || v2 != 16 {
		t.Errorf("owner hits v1 %d, v2 %d; want 0 and 16", v1, v2)
	}
}

// TestRetiredSwitchFreedAtFirstGC: a switch that has carried traffic is
// collectable by the first GC after its last use. The runtime keeps every
// sync.Pool in use reachable for one more cycle, so a pool embedded in the
// Switch held the whole retired switch, register arrays included, through
// that cycle.
func TestRetiredSwitchFreedAtFirstGC(t *testing.T) {
	freed := make(chan struct{})
	func() {
		sw := New(DefaultConfig())
		sw.Inject(pkt.NewUDP(pkt.FiveTuple{Proto: pkt.ProtoUDP}, 100), 0)
		runtime.SetFinalizer(sw, func(*Switch) { close(freed) })
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(5 * time.Second):
		t.Fatal("a retired switch survived the first GC cycle")
	}
}
