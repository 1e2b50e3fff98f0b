package dataplane

import (
	"testing"

	"p4runpro/internal/lang"
	"p4runpro/internal/pkt"
	"p4runpro/internal/resource"
	"p4runpro/internal/rmt"
)

func provision(t *testing.T) *Plane {
	t.Helper()
	sw := rmt.New(rmt.DefaultConfig())
	pl, err := Provision(sw)
	if err != nil {
		t.Fatalf("Provision: %v", err)
	}
	return pl
}

func TestProvisionDimensions(t *testing.T) {
	pl := provision(t)
	// 12+12 stages minus initialization and recirculation blocks.
	if pl.N != 10 || pl.M != 22 {
		t.Fatalf("N=%d M=%d", pl.N, pl.M)
	}
	// One init table per parsing path, 22 RPBs, one recirc table.
	tables := pl.SW.Tables()
	want := len(pkt.ParsePaths) + 22 + 1
	if len(tables) != want {
		t.Errorf("tables = %d, want %d", len(tables), want)
	}
	if pl.RecircTable() == nil {
		t.Error("no recirc table")
	}
}

func TestProvisionOnceOnly(t *testing.T) {
	sw := rmt.New(rmt.DefaultConfig())
	if _, err := Provision(sw); err != nil {
		t.Fatal(err)
	}
	if _, err := Provision(sw); err == nil {
		t.Error("double provisioning accepted")
	}
}

func TestRPBStageMapping(t *testing.T) {
	pl := provision(t)
	cases := []struct {
		rpb   resource.RPBID
		gress rmt.Gress
		stage int
	}{
		{1, rmt.Ingress, 1}, // stage 0 is the init block
		{10, rmt.Ingress, 10},
		{11, rmt.Egress, 0},
		{22, rmt.Egress, 11},
	}
	for _, c := range cases {
		g, st, err := pl.RPBStage(c.rpb)
		if err != nil {
			t.Fatalf("RPB %d: %v", c.rpb, err)
		}
		if g != c.gress || st != c.stage {
			t.Errorf("RPB %d -> %v stage %d, want %v stage %d", c.rpb, g, st, c.gress, c.stage)
		}
	}
	if _, _, err := pl.RPBStage(0); err == nil {
		t.Error("RPB 0 accepted")
	}
	if _, _, err := pl.RPBStage(23); err == nil {
		t.Error("RPB 23 accepted")
	}
	if g10, _, _ := pl.RPBStage(10); g10 != rmt.Ingress {
		t.Error("RPB 10 not in ingress")
	}
	if g11, _, _ := pl.RPBStage(11); g11 != rmt.Egress {
		t.Error("RPB 11 not in egress")
	}
}

func TestForwardingActionsIngressOnly(t *testing.T) {
	pl := provision(t)
	ing, err := pl.RPBTable(1)
	if err != nil {
		t.Fatal(err)
	}
	egr, err := pl.RPBTable(11)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]rmt.TernaryKey, 6)
	keys[0] = rmt.Exact(1)
	if _, err := ing.Insert(keys, 0, "forward", []uint32{5}, "t"); err != nil {
		t.Errorf("ingress forward rejected: %v", err)
	}
	if _, err := egr.Insert(keys, 0, "forward", []uint32{5}, "t"); err == nil {
		t.Error("egress RPB accepted a forwarding action")
	}
	// Non-forwarding actions exist on both.
	if _, err := egr.Insert(keys, 0, "loadi", []uint32{1, 7}, "t"); err != nil {
		t.Errorf("egress loadi rejected: %v", err)
	}
}

func TestFieldIDs(t *testing.T) {
	pl := provision(t)
	id, err := pl.FieldID("hdr.udp.dst_port")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := pl.FieldID("meta.qdepth")
	if err != nil {
		t.Fatal(err)
	}
	if id == id2 {
		t.Error("field IDs collide")
	}
	if _, err := pl.FieldID("hdr.bogus"); err == nil {
		t.Error("unknown field got an ID")
	}
}

func TestCompatiblePaths(t *testing.T) {
	cases := []struct {
		field string
		want  int
	}{
		{"hdr.udp.dst_port", 3}, // UDP, NC, CALC paths
		{"hdr.tcp.dst_port", 1},
		{"hdr.ipv4.dst", 5},
		{"hdr.eth.dst_lo", 6},
		{"meta.ingress_port", 6},
	}
	for _, c := range cases {
		paths, err := CompatiblePaths([]lang.Filter{{Field: c.field, Mask: 0xffff}})
		if err != nil {
			t.Fatalf("%s: %v", c.field, err)
		}
		if len(paths) != c.want {
			t.Errorf("%s: %d paths, want %d", c.field, len(paths), c.want)
		}
	}
	if _, err := CompatiblePaths([]lang.Filter{{Field: "hdr.nc.op"}}); err == nil {
		t.Error("unfilterable field accepted")
	}
	// Conjunction narrows: udp port AND tcp port is unsatisfiable.
	if _, err := CompatiblePaths([]lang.Filter{
		{Field: "hdr.udp.dst_port"}, {Field: "hdr.tcp.dst_port"},
	}); err == nil {
		t.Error("contradictory filter set accepted")
	}
}

func TestFilterKeys(t *testing.T) {
	filters := []lang.Filter{
		{Field: "hdr.ipv4.dst", Value: 0x0A000000, Mask: 0xFF000000},
		{Field: "hdr.udp.dst_port", Value: 7777, Mask: 0xFFFF},
	}
	keys, err := FilterKeys(filters, pkt.BitEthernet|pkt.BitIPv4|pkt.BitUDP)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != filterKeyCount {
		t.Fatalf("keys = %d", len(keys))
	}
	if keys[fkBitmap].Mask != ^uint32(0) {
		t.Error("bitmap key not exact")
	}
	if keys[fkIPDst].Value != 0x0A000000 || keys[fkDstPort].Value != 7777 {
		t.Error("filter values misplaced")
	}
	if keys[fkSrcPort].Mask != 0 {
		t.Error("unfiltered key not wildcard")
	}
	// Duplicate key positions rejected.
	if _, err := FilterKeys([]lang.Filter{
		{Field: "hdr.udp.dst_port", Mask: 1}, {Field: "hdr.tcp.dst_port", Mask: 1},
	}, pkt.BitEthernet); err == nil {
		t.Error("duplicate key position accepted")
	}
}

// TestInitBlockAssignsProgramID wires an init entry manually and checks the
// PHV carries the program ID onward.
func TestInitBlockAssignsProgramID(t *testing.T) {
	pl := provision(t)
	path := pkt.BitEthernet | pkt.BitIPv4 | pkt.BitUDP
	tbl, err := pl.InitTable(path)
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := FilterKeys([]lang.Filter{{Field: "hdr.udp.dst_port", Value: 53, Mask: 0xFFFF}}, path)
	if _, err := tbl.Insert(keys, 1, "set_program", []uint32{99}, "t"); err != nil {
		t.Fatal(err)
	}
	// An RPB entry for program 99 that records its execution by loading a
	// marker into har; we verify via a modify writing to the packet.
	rpb1, _ := pl.RPBTable(1)
	k := make([]rmt.TernaryKey, 6)
	k[0] = rmt.Exact(99)
	k[1] = rmt.Exact(0)
	k[2] = rmt.Exact(0)
	if _, err := rpb1.Insert(k, 0, "loadi", []uint32{1, 1234}, "t"); err != nil {
		t.Fatal(err)
	}
	rpb2, _ := pl.RPBTable(2)
	fid, _ := pl.FieldID("hdr.ipv4.id")
	k2 := make([]rmt.TernaryKey, 6)
	k2[0] = rmt.Exact(99)
	k2[1] = rmt.Exact(0)
	k2[2] = rmt.Exact(0)
	if _, err := rpb2.Insert(k2, 0, "modify", []uint32{fid, 1}, "t"); err != nil {
		t.Fatal(err)
	}
	flow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 53, Proto: pkt.ProtoUDP}
	p := pkt.NewUDP(flow, 100)
	pl.SW.Inject(p, 0)
	if p.IP4.ID != 1234 {
		t.Errorf("program 99 did not execute: ip.id = %d", p.IP4.ID)
	}
	// A packet to another port misses the filter and is untouched.
	q := pkt.NewUDP(pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 54, Proto: pkt.ProtoUDP}, 100)
	pl.SW.Inject(q, 0)
	if q.IP4.ID != 0 {
		t.Error("filter leaked")
	}
}

// TestMemoryActionsViaPlane exercises offset + SALU actions directly.
func TestMemoryActionsViaPlane(t *testing.T) {
	pl := provision(t)
	rpb3, _ := pl.RPBTable(3)
	rpb4, _ := pl.RPBTable(4)
	mk := func(branch uint32) []rmt.TernaryKey {
		k := make([]rmt.TernaryKey, 6)
		k[0] = rmt.Exact(7)
		k[1] = rmt.Exact(branch)
		k[2] = rmt.Exact(0)
		return k
	}
	// RPB3: offset step with base 100; RPB4: mem_add.
	if _, err := rpb3.Insert(mk(0), 0, "offset", []uint32{100}, "t"); err != nil {
		t.Fatal(err)
	}
	if _, err := rpb4.Insert(mk(0), 0, "mem_add", nil, "t"); err != nil {
		t.Fatal(err)
	}
	// Manually set prog/sar/mar via an init-path bypass: use loadi entries
	// in RPBs 1-2 after a catch-all filter.
	path := pkt.BitEthernet | pkt.BitIPv4 | pkt.BitUDP
	tbl, _ := pl.InitTable(path)
	keys, _ := FilterKeys(nil, path)
	if _, err := tbl.Insert(keys, 0, "set_program", []uint32{7}, "t"); err != nil {
		t.Fatal(err)
	}
	rpb1, _ := pl.RPBTable(1)
	if _, err := rpb1.Insert(mk(0), 0, "loadi", []uint32{2, 5}, "t"); err != nil { // sar=5
		t.Fatal(err)
	}
	rpb2, _ := pl.RPBTable(2)
	if _, err := rpb2.Insert(mk(0), 0, "loadi", []uint32{3, 9}, "t"); err != nil { // mar=9
		t.Fatal(err)
	}
	flow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: pkt.ProtoUDP}
	pl.SW.Inject(pkt.NewUDP(flow, 100), 0)
	arr, err := pl.Array(4)
	if err != nil {
		t.Fatal(err)
	}
	v, err := arr.Peek(109) // mar 9 + offset 100
	if err != nil {
		t.Fatal(err)
	}
	if v != 5 {
		t.Errorf("memory[109] = %d, want 5", v)
	}
}

func TestPHVBudget(t *testing.T) {
	pl := provision(t)
	// The P4runpro PHV layout must stay well under the chip budget (the
	// paper: efficient PHV use).
	used := pl.SW.PHVLayout().Bits()
	if used == 0 || used > pl.SW.Config().PHVBits/2 {
		t.Errorf("PHV bits = %d of %d", used, pl.SW.Config().PHVBits)
	}
}
