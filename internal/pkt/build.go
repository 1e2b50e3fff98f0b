package pkt

// Builders for the packet shapes used throughout the test suite, the traffic
// generator, and the examples. All builders produce already-parsed packets
// with correct parse bitmaps, equivalent to Parse(Marshal(p)).

// NewUDP builds a minimal Ethernet/IPv4/UDP packet of the given wire length.
func NewUDP(t FiveTuple, wireLen int) *Packet {
	if wireLen < ethLen+ipv4Len+udpLen {
		wireLen = ethLen + ipv4Len + udpLen
	}
	p := &Packet{
		Eth:     &Ethernet{EtherType: EtherTypeIPv4},
		IP4:     &IPv4{TTL: 64, Proto: ProtoUDP, Src: t.SrcIP, Dst: t.DstIP, TotalLen: uint16(wireLen - ethLen)},
		UDP:     &UDP{SrcPort: t.SrcPort, DstPort: t.DstPort, Len: uint16(wireLen - ethLen - ipv4Len)},
		Bitmap:  BitEthernet | BitIPv4 | BitUDP,
		WireLen: wireLen,
	}
	return p
}

// NewTCP builds a minimal Ethernet/IPv4/TCP packet of the given wire length.
func NewTCP(t FiveTuple, flags uint8, wireLen int) *Packet {
	if wireLen < ethLen+ipv4Len+tcpLen {
		wireLen = ethLen + ipv4Len + tcpLen
	}
	return &Packet{
		Eth:     &Ethernet{EtherType: EtherTypeIPv4},
		IP4:     &IPv4{TTL: 64, Proto: ProtoTCP, Src: t.SrcIP, Dst: t.DstIP, TotalLen: uint16(wireLen - ethLen)},
		TCP:     &TCP{SrcPort: t.SrcPort, DstPort: t.DstPort, Flags: flags},
		Bitmap:  BitEthernet | BitIPv4 | BitTCP,
		WireLen: wireLen,
	}
}

// NewNC builds a cache-protocol packet (UDP destination PortNetCache with an
// NC header). key is the 64-bit cache key split across Key2(high)/Key1(low).
func NewNC(t FiveTuple, op uint32, key uint64, value uint32) *Packet {
	t.DstPort = PortNetCache
	p := NewUDP(t, ethLen+ipv4Len+udpLen+ncLen)
	p.NC = &NC{Op: op, Key1: uint32(key), Key2: uint32(key >> 32), Value: value}
	p.Bitmap |= BitNC
	return p
}

// NewCalc builds a calculator-protocol packet.
func NewCalc(t FiveTuple, op, a, b uint32) *Packet {
	t.DstPort = PortCalculator
	p := NewUDP(t, ethLen+ipv4Len+udpLen+calcLen)
	p.Calc = &Calc{Op: op, A: a, B: b}
	p.Bitmap |= BitCalc
	return p
}
