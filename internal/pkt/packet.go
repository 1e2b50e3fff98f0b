package pkt

import "sort"

// ParseBitmap is the parsing-state bitmap maintained in the PHV (paper
// §4.1.1). Each bit records that the parser visited the state that extracts
// a particular header; the initialization block selects a filtering table by
// the final bitmap value (one table per parsing path).
type ParseBitmap uint8

// Bits of ParseBitmap. The low nibble matches the paper's 4-bit example
// (Ethernet, IPv4, TCP, UDP); custom application headers extend it.
const (
	BitEthernet ParseBitmap = 1 << 3
	BitIPv4     ParseBitmap = 1 << 2
	BitTCP      ParseBitmap = 1 << 1
	BitUDP      ParseBitmap = 1 << 0
	BitNC       ParseBitmap = 1 << 4
	BitCalc     ParseBitmap = 1 << 5
	BitRecirc   ParseBitmap = 1 << 6
)

// Has reports whether all bits of q are set in b.
func (b ParseBitmap) Has(q ParseBitmap) bool { return b&q == q }

// String lists the set header bits, e.g. "eth|ipv4|udp".
func (b ParseBitmap) String() string {
	names := ""
	add := func(bit ParseBitmap, n string) {
		if b.Has(bit) {
			if names != "" {
				names += "+"
			}
			names += n
		}
	}
	add(BitEthernet, "eth")
	add(BitIPv4, "ipv4")
	add(BitTCP, "tcp")
	add(BitUDP, "udp")
	add(BitNC, "nc")
	add(BitCalc, "calc")
	add(BitRecirc, "recirc")
	if names == "" {
		return "none"
	}
	return names
}

// Packet is a parsed packet. Header pointers are nil when the corresponding
// header is absent. WireLen is the full on-the-wire length in bytes,
// including any payload beyond the parsed headers.
type Packet struct {
	Shim *RecircShim // present only inside the switch between passes
	Eth  *Ethernet
	IP4  *IPv4
	TCP  *TCP
	UDP  *UDP
	NC   *NC
	Calc *Calc

	Payload []byte
	Bitmap  ParseBitmap
	WireLen int
}

// Clone deep-copies the packet so two pipeline passes or programs cannot
// alias each other's headers.
func (p *Packet) Clone() *Packet {
	q := &Packet{Bitmap: p.Bitmap, WireLen: p.WireLen}
	if p.Shim != nil {
		s := *p.Shim
		q.Shim = &s
	}
	if p.Eth != nil {
		h := *p.Eth
		q.Eth = &h
	}
	if p.IP4 != nil {
		h := *p.IP4
		q.IP4 = &h
	}
	if p.TCP != nil {
		h := *p.TCP
		q.TCP = &h
	}
	if p.UDP != nil {
		h := *p.UDP
		q.UDP = &h
	}
	if p.NC != nil {
		h := *p.NC
		q.NC = &h
	}
	if p.Calc != nil {
		h := *p.Calc
		q.Calc = &h
	}
	if p.Payload != nil {
		q.Payload = append([]byte(nil), p.Payload...)
	}
	return q
}

// FiveTuple extracts the packet's flow identity. Packets without an IPv4 or
// L4 header yield zeroed fields for the missing parts.
func (p *Packet) FiveTuple() FiveTuple {
	var t FiveTuple
	if p.IP4 != nil {
		t.SrcIP, t.DstIP, t.Proto = p.IP4.Src, p.IP4.Dst, p.IP4.Proto
	}
	switch {
	case p.TCP != nil:
		t.SrcPort, t.DstPort = p.TCP.SrcPort, p.TCP.DstPort
	case p.UDP != nil:
		t.SrcPort, t.DstPort = p.UDP.SrcPort, p.UDP.DstPort
	}
	return t
}

// FieldAccessor reads and writes one named 32-bit-addressable header field.
// Field resolves one by name, so code that touches a field per packet looks
// its name up once.
type FieldAccessor struct {
	get func(*Packet) (uint32, bool)
	set func(*Packet, uint32) bool
}

// Field resolves a header field name.
func Field(name string) (FieldAccessor, bool) {
	a, ok := fieldRegistry[name]
	return a, ok
}

// Get reads the field, reporting false when its header is absent.
func (a FieldAccessor) Get(p *Packet) (uint32, bool) { return a.get(p) }

// Set writes the field, truncated to its width. It writes nothing and
// reports false when the field's header is absent.
func (a FieldAccessor) Set(p *Packet, v uint32) bool { return a.set(p, v) }

// fieldRegistry maps P4runpro field names (the FIELD terminals of the
// grammar, e.g. "hdr.udp.dst_port") to accessors. Fields wider than 32 bits
// are exposed as _hi/_lo halves, as the prototype does for PHV registers.
var fieldRegistry = map[string]FieldAccessor{
	"hdr.eth.dst_hi": {
		func(p *Packet) (uint32, bool) {
			if p.Eth == nil {
				return 0, false
			}
			return p.Eth.Dst.Hi16(), true
		},
		func(p *Packet, v uint32) bool {
			if p.Eth == nil {
				return false
			}
			p.Eth.Dst.SetHi16(v)
			return true
		},
	},
	"hdr.eth.dst_lo": {
		func(p *Packet) (uint32, bool) {
			if p.Eth == nil {
				return 0, false
			}
			return p.Eth.Dst.Lo32(), true
		},
		func(p *Packet, v uint32) bool {
			if p.Eth == nil {
				return false
			}
			p.Eth.Dst.SetLo32(v)
			return true
		},
	},
	"hdr.eth.src_hi": {
		func(p *Packet) (uint32, bool) {
			if p.Eth == nil {
				return 0, false
			}
			return p.Eth.Src.Hi16(), true
		},
		func(p *Packet, v uint32) bool {
			if p.Eth == nil {
				return false
			}
			p.Eth.Src.SetHi16(v)
			return true
		},
	},
	"hdr.eth.src_lo": {
		func(p *Packet) (uint32, bool) {
			if p.Eth == nil {
				return 0, false
			}
			return p.Eth.Src.Lo32(), true
		},
		func(p *Packet, v uint32) bool {
			if p.Eth == nil {
				return false
			}
			p.Eth.Src.SetLo32(v)
			return true
		},
	},
	"hdr.eth.type": {
		func(p *Packet) (uint32, bool) {
			if p.Eth == nil {
				return 0, false
			}
			return uint32(p.Eth.EtherType), true
		},
		func(p *Packet, v uint32) bool {
			if p.Eth == nil {
				return false
			}
			p.Eth.EtherType = uint16(v)
			return true
		},
	},
	"hdr.ipv4.src":   ipv4Field(func(h *IPv4) *uint32 { return &h.Src }),
	"hdr.ipv4.dst":   ipv4Field(func(h *IPv4) *uint32 { return &h.Dst }),
	"hdr.ipv4.proto": ipv4Field8(func(h *IPv4) *uint8 { return &h.Proto }),
	"hdr.ipv4.ttl":   ipv4Field8(func(h *IPv4) *uint8 { return &h.TTL }),
	"hdr.ipv4.ecn":   ipv4Field8(func(h *IPv4) *uint8 { return &h.ECN }),
	"hdr.ipv4.dscp":  ipv4Field8(func(h *IPv4) *uint8 { return &h.DSCP }),
	"hdr.ipv4.len":   ipv4Field16(func(h *IPv4) *uint16 { return &h.TotalLen }),
	"hdr.ipv4.id":    ipv4Field16(func(h *IPv4) *uint16 { return &h.ID }),
	"hdr.tcp.src_port": {
		func(p *Packet) (uint32, bool) {
			if p.TCP == nil {
				return 0, false
			}
			return uint32(p.TCP.SrcPort), true
		},
		func(p *Packet, v uint32) bool {
			if p.TCP == nil {
				return false
			}
			p.TCP.SrcPort = uint16(v)
			return true
		},
	},
	"hdr.tcp.dst_port": {
		func(p *Packet) (uint32, bool) {
			if p.TCP == nil {
				return 0, false
			}
			return uint32(p.TCP.DstPort), true
		},
		func(p *Packet, v uint32) bool {
			if p.TCP == nil {
				return false
			}
			p.TCP.DstPort = uint16(v)
			return true
		},
	},
	"hdr.tcp.seq": {
		func(p *Packet) (uint32, bool) {
			if p.TCP == nil {
				return 0, false
			}
			return p.TCP.Seq, true
		},
		func(p *Packet, v uint32) bool {
			if p.TCP == nil {
				return false
			}
			p.TCP.Seq = v
			return true
		},
	},
	"hdr.tcp.ack": {
		func(p *Packet) (uint32, bool) {
			if p.TCP == nil {
				return 0, false
			}
			return p.TCP.Ack, true
		},
		func(p *Packet, v uint32) bool {
			if p.TCP == nil {
				return false
			}
			p.TCP.Ack = v
			return true
		},
	},
	"hdr.tcp.flags": {
		func(p *Packet) (uint32, bool) {
			if p.TCP == nil {
				return 0, false
			}
			return uint32(p.TCP.Flags), true
		},
		func(p *Packet, v uint32) bool {
			if p.TCP == nil {
				return false
			}
			p.TCP.Flags = uint8(v)
			return true
		},
	},
	"hdr.udp.src_port": {
		func(p *Packet) (uint32, bool) {
			if p.UDP == nil {
				return 0, false
			}
			return uint32(p.UDP.SrcPort), true
		},
		func(p *Packet, v uint32) bool {
			if p.UDP == nil {
				return false
			}
			p.UDP.SrcPort = uint16(v)
			return true
		},
	},
	"hdr.udp.dst_port": {
		func(p *Packet) (uint32, bool) {
			if p.UDP == nil {
				return 0, false
			}
			return uint32(p.UDP.DstPort), true
		},
		func(p *Packet, v uint32) bool {
			if p.UDP == nil {
				return false
			}
			p.UDP.DstPort = uint16(v)
			return true
		},
	},
	"hdr.nc.op":     ncField(func(h *NC) *uint32 { return &h.Op }),
	"hdr.nc.key1":   ncField(func(h *NC) *uint32 { return &h.Key1 }),
	"hdr.nc.key2":   ncField(func(h *NC) *uint32 { return &h.Key2 }),
	"hdr.nc.value":  ncField(func(h *NC) *uint32 { return &h.Value }),
	"hdr.calc.op":   calcField(func(h *Calc) *uint32 { return &h.Op }),
	"hdr.calc.a":    calcField(func(h *Calc) *uint32 { return &h.A }),
	"hdr.calc.b":    calcField(func(h *Calc) *uint32 { return &h.B }),
	"hdr.calc.res":  calcField(func(h *Calc) *uint32 { return &h.Result }),
	"hdr.nc.val":    ncField(func(h *NC) *uint32 { return &h.Value }), // alias used in Figure 2
	"hdr.nc.key":    ncField(func(h *NC) *uint32 { return &h.Key1 }),  // alias: low key half
	"hdr.calc.r":    calcField(func(h *Calc) *uint32 { return &h.Result }),
	"hdr.ipv4.dest": ipv4Field(func(h *IPv4) *uint32 { return &h.Dst }), // alias
}

func ipv4Field(sel func(*IPv4) *uint32) FieldAccessor {
	return FieldAccessor{
		func(p *Packet) (uint32, bool) {
			if p.IP4 == nil {
				return 0, false
			}
			return *sel(p.IP4), true
		},
		func(p *Packet, v uint32) bool {
			if p.IP4 == nil {
				return false
			}
			*sel(p.IP4) = v
			return true
		},
	}
}

func ipv4Field8(sel func(*IPv4) *uint8) FieldAccessor {
	return FieldAccessor{
		func(p *Packet) (uint32, bool) {
			if p.IP4 == nil {
				return 0, false
			}
			return uint32(*sel(p.IP4)), true
		},
		func(p *Packet, v uint32) bool {
			if p.IP4 == nil {
				return false
			}
			*sel(p.IP4) = uint8(v)
			return true
		},
	}
}

func ipv4Field16(sel func(*IPv4) *uint16) FieldAccessor {
	return FieldAccessor{
		func(p *Packet) (uint32, bool) {
			if p.IP4 == nil {
				return 0, false
			}
			return uint32(*sel(p.IP4)), true
		},
		func(p *Packet, v uint32) bool {
			if p.IP4 == nil {
				return false
			}
			*sel(p.IP4) = uint16(v)
			return true
		},
	}
}

func ncField(sel func(*NC) *uint32) FieldAccessor {
	return FieldAccessor{
		func(p *Packet) (uint32, bool) {
			if p.NC == nil {
				return 0, false
			}
			return *sel(p.NC), true
		},
		func(p *Packet, v uint32) bool {
			if p.NC == nil {
				return false
			}
			*sel(p.NC) = v
			return true
		},
	}
}

func calcField(sel func(*Calc) *uint32) FieldAccessor {
	return FieldAccessor{
		func(p *Packet) (uint32, bool) {
			if p.Calc == nil {
				return 0, false
			}
			return *sel(p.Calc), true
		},
		func(p *Packet, v uint32) bool {
			if p.Calc == nil {
				return false
			}
			*sel(p.Calc) = v
			return true
		},
	}
}

// KnownField reports whether name is a recognized header field.
func KnownField(name string) bool {
	_, ok := fieldRegistry[name]
	return ok
}

// FieldNames returns all recognized header field names, sorted.
func FieldNames() []string {
	out := make([]string, 0, len(fieldRegistry))
	for n := range fieldRegistry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
