package pkt

// NewL2 builds a bare Ethernet frame (no IP), e.g. for the L2 forwarding
// program and the 0b1000-bitmap parsing path.
func NewL2(dst, src MAC, wireLen int) *Packet {
	if wireLen < ethLen {
		wireLen = ethLen
	}
	return &Packet{
		Eth:     &Ethernet{Dst: dst, Src: src, EtherType: 0x0101},
		Bitmap:  BitEthernet,
		WireLen: wireLen,
	}
}
