package pkt

import (
	"bytes"
	"testing"
	"testing/quick"
)

func sampleFlow() FiveTuple {
	return FiveTuple{
		SrcIP: IP(10, 1, 2, 3), DstIP: IP(192, 168, 0, 9),
		SrcPort: 1234, DstPort: 80, Proto: ProtoTCP,
	}
}

func TestIPHelpers(t *testing.T) {
	if IP(10, 0, 0, 1) != 0x0A000001 {
		t.Errorf("IP() = %08x", IP(10, 0, 0, 1))
	}
	ft := FiveTuple{SrcIP: IP(1, 2, 3, 4), DstIP: IP(5, 6, 7, 8), SrcPort: 9, DstPort: 10, Proto: 17}
	if got := ft.String(); got != "1.2.3.4:9->5.6.7.8:10/17" {
		t.Errorf("FiveTuple.String() = %q", got)
	}
	b := ft.Bytes()
	if len(b) != 13 || b[0] != 1 || b[12] != 17 {
		t.Errorf("FiveTuple.Bytes() = %v", b)
	}
}

func TestMACHalves(t *testing.T) {
	m := MAC{0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF}
	if m.Hi16() != 0xAABB || m.Lo32() != 0xCCDDEEFF {
		t.Fatalf("halves = %04x %08x", m.Hi16(), m.Lo32())
	}
	var n MAC
	n.SetHi16(0xAABB)
	n.SetLo32(0xCCDDEEFF)
	if n != m {
		t.Errorf("reassembled %v != %v", n, m)
	}
	if m.String() != "aa:bb:cc:dd:ee:ff" {
		t.Errorf("String = %q", m.String())
	}
}

// TestMarshalParseRoundTrip checks every builder shape survives the codec.
func TestMarshalParseRoundTrip(t *testing.T) {
	cases := map[string]*Packet{
		"udp":  NewUDP(FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: ProtoUDP}, 120),
		"tcp":  NewTCP(sampleFlow(), TCPSyn|TCPAck, 200),
		"nc":   NewNC(FiveTuple{SrcIP: 7, DstIP: 8, SrcPort: 9, Proto: ProtoUDP}, NCWrite, 0xAABBCCDD11223344, 77),
		"calc": NewCalc(FiveTuple{SrcIP: 7, DstIP: 8, SrcPort: 9, Proto: ProtoUDP}, CalcXor, 5, 6),
		"l2":   NewL2(MAC{1, 2, 3, 4, 5, 6}, MAC{7, 8, 9, 10, 11, 12}, 64),
	}
	for name, p := range cases {
		t.Run(name, func(t *testing.T) {
			frame := p.Marshal()
			if len(frame) != p.WireLen {
				t.Fatalf("frame %d bytes, WireLen %d", len(frame), p.WireLen)
			}
			q, err := Parse(frame)
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			if q.Bitmap != p.Bitmap {
				t.Errorf("bitmap %s != %s", q.Bitmap, p.Bitmap)
			}
			if q.FiveTuple() != p.FiveTuple() {
				t.Errorf("5-tuple %v != %v", q.FiveTuple(), p.FiveTuple())
			}
			if !bytes.Equal(q.Marshal(), frame) {
				t.Error("re-marshal differs")
			}
		})
	}
}

func TestParseBitmapValues(t *testing.T) {
	// The paper's example encoding: an L2 packet is 0b1000, UDP is 0b1101.
	l2 := NewL2(MAC{}, MAC{}, 64)
	if uint8(l2.Bitmap) != 0b1000 {
		t.Errorf("l2 bitmap = %04b", uint8(l2.Bitmap))
	}
	udp := NewUDP(FiveTuple{Proto: ProtoUDP}, 100)
	if uint8(udp.Bitmap) != 0b1101 {
		t.Errorf("udp bitmap = %04b", uint8(udp.Bitmap))
	}
	tcp := NewTCP(FiveTuple{Proto: ProtoTCP}, 0, 100)
	if uint8(tcp.Bitmap) != 0b1110 {
		t.Errorf("tcp bitmap = %04b", uint8(tcp.Bitmap))
	}
	if !udp.Bitmap.Has(BitIPv4) || udp.Bitmap.Has(BitTCP) {
		t.Error("Has() misbehaves")
	}
	if s := udp.Bitmap.String(); s != "eth+ipv4+udp" {
		t.Errorf("bitmap string = %q", s)
	}
}

func TestParseCustomHeaders(t *testing.T) {
	nc := NewNC(FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 9, Proto: ProtoUDP}, NCRead, 0x8888, 0)
	p, err := Parse(nc.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if p.NC == nil || p.NC.Op != NCRead || p.NC.Key1 != 0x8888 || p.NC.Key2 != 0 {
		t.Fatalf("NC = %+v", p.NC)
	}
	if !p.Bitmap.Has(BitNC) {
		t.Error("NC bit missing")
	}

	// Same UDP packet to another port parses no NC header.
	udp := NewUDP(FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 9, DstPort: 53, Proto: ProtoUDP}, 100)
	q, err := Parse(udp.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if q.NC != nil || q.Bitmap.Has(BitNC) {
		t.Error("NC parsed on wrong port")
	}
}

func TestRecircShimRoundTrip(t *testing.T) {
	p := NewUDP(FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: ProtoUDP}, 200)
	p.Shim = &RecircShim{HAR: 11, SAR: 22, MAR: 33, ProgramID: 44, BranchID: 5, RecircID: 1}
	p.WireLen += 20
	frame := p.Marshal()
	q, err := Parse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if q.Shim == nil || *q.Shim != *p.Shim {
		t.Fatalf("shim = %+v", q.Shim)
	}
	if !q.Bitmap.Has(BitRecirc) {
		t.Error("recirc bit missing")
	}
	// The shim is invisible externally: stripping it restores a normal
	// frame.
	q.Shim = nil
	q.WireLen -= 20
	ext, err := Parse(q.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if ext.Shim != nil || ext.UDP == nil {
		t.Error("shim strip failed")
	}
}

func TestParseTruncated(t *testing.T) {
	full := NewNC(FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 9, Proto: ProtoUDP}, NCRead, 1, 2).Marshal()
	for _, cut := range []int{1, 13, 15, 20, 33, 35, 41, 45, len(full) - 1} {
		if _, err := Parse(full[:cut]); err == nil {
			t.Errorf("Parse of %d/%d bytes succeeded", cut, len(full))
		}
	}
	if _, err := Parse(full); err != nil {
		t.Fatalf("full frame failed: %v", err)
	}
}

func TestParseBadVersion(t *testing.T) {
	frame := NewUDP(FiveTuple{Proto: ProtoUDP}, 100).Marshal()
	frame[14] = 0x65 // IP version 6
	if _, err := Parse(frame); err == nil {
		t.Error("bad IP version accepted")
	}
}

func TestIPChecksum(t *testing.T) {
	p := NewUDP(FiveTuple{SrcIP: IP(10, 0, 0, 1), DstIP: IP(10, 0, 0, 2), SrcPort: 1, DstPort: 2, Proto: ProtoUDP}, 100)
	frame := p.Marshal()
	hdr := frame[14:34]
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(hdr[i])<<8 | uint32(hdr[i+1])
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	if uint16(sum) != 0xffff {
		t.Errorf("checksum does not validate: %04x", uint16(sum))
	}
}

func TestCloneIndependence(t *testing.T) {
	p := NewNC(sampleFlow(), NCRead, 0x8888, 5)
	q := p.Clone()
	q.NC.Value = 99
	q.IP4.TTL = 1
	if p.NC.Value == 99 || p.IP4.TTL == 1 {
		t.Error("clone aliases original")
	}
}

func TestFieldAccess(t *testing.T) {
	p := NewNC(sampleFlow(), NCRead, 0x8888, 5)
	cases := map[string]uint32{
		"hdr.ipv4.src":     p.IP4.Src,
		"hdr.ipv4.dst":     p.IP4.Dst,
		"hdr.udp.dst_port": uint32(PortNetCache),
		"hdr.nc.op":        NCRead,
		"hdr.nc.key1":      0x8888,
		"hdr.nc.value":     5,
	}
	for name, want := range cases {
		got, ok := field(t, name).Get(p)
		if !ok || got != want {
			t.Errorf("Get(%s) = %d, %t, want %d", name, got, ok, want)
		}
	}
	if !field(t, "hdr.nc.value").Set(p, 123) || p.NC.Value != 123 {
		t.Errorf("Set did not write: %d", p.NC.Value)
	}
	// Unknown fields do not resolve; an absent header is neither read nor
	// written.
	if _, ok := Field("hdr.zzz.q"); ok {
		t.Error("unknown field resolved")
	}
	if _, ok := field(t, "hdr.tcp.seq").Get(p); ok {
		t.Error("absent header read accepted")
	}
	if field(t, "hdr.tcp.seq").Set(p, 1) {
		t.Error("absent header write accepted")
	}
}

// field resolves a header field name, failing the test on an unknown one.
func field(t *testing.T, name string) FieldAccessor {
	t.Helper()
	a, ok := Field(name)
	if !ok {
		t.Fatalf("unknown field %q", name)
	}
	return a
}

func TestFieldNamesComplete(t *testing.T) {
	names := FieldNames()
	if len(names) < 20 {
		t.Fatalf("only %d fields", len(names))
	}
	for _, n := range names {
		if !KnownField(n) {
			t.Errorf("FieldNames lists unknown field %q", n)
		}
	}
	// Narrow fields truncate on write, like PHV containers.
	p := NewTCP(sampleFlow(), 0, 100)
	if !field(t, "hdr.ipv4.ttl").Set(p, 0x1FF) {
		t.Fatal("ttl not written")
	}
	if p.IP4.TTL != 0xFF {
		t.Errorf("ttl = %d, want truncation to 8 bits", p.IP4.TTL)
	}
}

// TestRoundTripProperty: any NC packet built from random values round-trips
// through Marshal/Parse bit-exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(srcIP, dstIP uint32, sport uint16, op uint8, key uint64, val uint32) bool {
		flow := FiveTuple{SrcIP: srcIP, DstIP: dstIP, SrcPort: sport, Proto: ProtoUDP}
		p := NewNC(flow, uint32(op), key, val)
		q, err := Parse(p.Marshal())
		if err != nil {
			return false
		}
		return q.NC != nil && *q.NC == *p.NC && q.FiveTuple() == p.FiveTuple()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEveryFieldAccessor sweeps the whole field registry: on a packet shape
// that carries the field's header, Get returns what Set wrote (modulo the
// field's width); on a shape without it, both fail.
func TestEveryFieldAccessor(t *testing.T) {
	nc := NewNC(FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, Proto: ProtoUDP}, NCRead, 0x1234, 5)
	tcp := NewTCP(sampleFlow(), TCPAck, 120)
	calc := NewCalc(FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, Proto: ProtoUDP}, CalcAdd, 1, 2)
	l2 := NewL2(MAC{1, 2, 3, 4, 5, 6}, MAC{7, 8, 9, 10, 11, 12}, 64)

	hosts := []*Packet{nc, tcp, calc, l2}
	for _, name := range FieldNames() {
		found := false
		a := field(t, name)
		for _, p := range hosts {
			if _, ok := a.Get(p); !ok {
				continue
			}
			found = true
			const probe = 0x5A5A5A5A
			if !a.Set(p, probe) {
				t.Errorf("%s: set failed on readable host", name)
				continue
			}
			got, ok := a.Get(p)
			if !ok {
				t.Errorf("%s: get after set failed", name)
				continue
			}
			// The readback must be the probe truncated to some width:
			// its bits must be a subset of the probe's.
			if got&^uint32(probe) != 0 {
				t.Errorf("%s: readback %#x has bits outside probe %#x", name, got, probe)
			}
			if got == 0 && name != "hdr.ipv4.ecn" { // 2-bit ecn of 0x5A...&3 = 2, never 0; others shouldn't be 0 either
				t.Errorf("%s: readback lost all probe bits", name)
			}
		}
		if !found {
			t.Errorf("field %q is not accessible on any packet shape", name)
		}
	}
}

// TestAliasesShareStorage: documented aliases resolve to the same field.
func TestAliasesShareStorage(t *testing.T) {
	p := NewNC(sampleFlow(), NCWrite, 1, 2)
	if !field(t, "hdr.nc.val").Set(p, 99) {
		t.Fatal("hdr.nc.val not written")
	}
	if v, _ := field(t, "hdr.nc.value").Get(p); v != 99 {
		t.Errorf("hdr.nc.val alias broken: %d", v)
	}
	if !field(t, "hdr.ipv4.dest").Set(p, 0xAABBCCDD) {
		t.Fatal("hdr.ipv4.dest not written")
	}
	if v, _ := field(t, "hdr.ipv4.dst").Get(p); v != 0xAABBCCDD {
		t.Errorf("hdr.ipv4.dest alias broken: %x", v)
	}
}
