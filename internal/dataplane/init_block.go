package dataplane

import (
	"fmt"

	"p4runpro/internal/lang"
	"p4runpro/internal/pkt"
	"p4runpro/internal/rmt"
)

// The initialization block (paper §4.1.1) sits in the first ingress stage:
// one filtering table per parsing path. Each table's only action assigns the
// packet's program ID according to the installed filtering rules; subsequent
// blocks isolate programs by that ID. A packet gets its ID once, on its
// first pass: the ID then rides the P4runpro header across recirculation
// (§4.1.3), so a pass that rewrote a filtered field cannot hand the packet
// to another program.

// Filter key positions. Position 0 is the parse bitmap (exact per path);
// the rest cover the fields programs may filter on, at flow and port
// granularity.
const (
	fkBitmap = iota
	fkEthDst
	fkIPSrc
	fkIPDst
	fkProto
	fkSrcPort
	fkDstPort
	fkInPort
	filterKeyCount
)

// filterFieldIndex maps a program filter field to its key position.
var filterFieldIndex = map[string]int{
	"hdr.eth.dst_lo":    fkEthDst,
	"hdr.ipv4.src":      fkIPSrc,
	"hdr.ipv4.dst":      fkIPDst,
	"hdr.ipv4.dest":     fkIPDst,
	"hdr.ipv4.proto":    fkProto,
	"hdr.tcp.src_port":  fkSrcPort,
	"hdr.udp.src_port":  fkSrcPort,
	"hdr.tcp.dst_port":  fkDstPort,
	"hdr.udp.dst_port":  fkDstPort,
	"meta.ingress_port": fkInPort,
}

// filterFieldBits gives the parse-path bits a filter field requires.
var filterFieldBits = map[string]pkt.ParseBitmap{
	"hdr.eth.dst_lo":    pkt.BitEthernet,
	"hdr.ipv4.src":      pkt.BitIPv4,
	"hdr.ipv4.dst":      pkt.BitIPv4,
	"hdr.ipv4.dest":     pkt.BitIPv4,
	"hdr.ipv4.proto":    pkt.BitIPv4,
	"hdr.tcp.src_port":  pkt.BitTCP,
	"hdr.udp.src_port":  pkt.BitUDP,
	"hdr.tcp.dst_port":  pkt.BitTCP,
	"hdr.udp.dst_port":  pkt.BitUDP,
	"meta.ingress_port": 0,
}

// initKey extracts an init table's key. On a recirculated pass (and on a
// chained switch, whose parse hook restores the pass from the shim) it
// leaves the parse path at 0, which no entry matches: every entry is exact
// on its path there.
func (pl *Plane) initKey(p *rmt.PHV) []uint32 {
	k := p.KeyScratch(filterKeyCount)
	q := p.Packet
	if p.Load(pl.phv.recirc) == 0 {
		k[fkBitmap] = uint32(q.Bitmap)
	}
	if q.Eth != nil {
		k[fkEthDst] = q.Eth.Dst.Lo32()
	}
	if q.IP4 != nil {
		k[fkIPSrc] = q.IP4.Src
		k[fkIPDst] = q.IP4.Dst
		k[fkProto] = uint32(q.IP4.Proto)
	}
	switch {
	case q.TCP != nil:
		k[fkSrcPort] = uint32(q.TCP.SrcPort)
		k[fkDstPort] = uint32(q.TCP.DstPort)
	case q.UDP != nil:
		k[fkSrcPort] = uint32(q.UDP.SrcPort)
		k[fkDstPort] = uint32(q.UDP.DstPort)
	}
	k[fkInPort] = uint32(p.Meta.IngressPort)
	return k
}

// provisionInitBlock adds one filtering table per parsing path, each gated on
// its path: a packet applies only its own path's table, as the P4 control
// flow that switches on the parse bitmap does. FilterKeys puts the path at
// fkBitmap exactly, and the gate holds every entry to that.
func (pl *Plane) provisionInitBlock() error {
	cfg := pl.SW.Config()
	prog := pl.phv.prog
	for _, path := range pkt.ParsePaths {
		name := fmt.Sprintf("init_%s", path)
		t, err := pl.SW.AddTable(name, rmt.Ingress, 0, cfg.TableCapacity, filterKeyCount, pl.initKey)
		if err != nil {
			return err
		}
		if err := t.SetParsePath(fkBitmap, path); err != nil {
			return err
		}
		if err := t.RegisterAction("set_program", 1, func(p *rmt.PHV, params []uint32) {
			p.Store(prog, params[0])
		}); err != nil {
			return err
		}
		pl.initTables[path] = t
	}
	return nil
}

// CompatiblePaths returns the parsing paths on which a program's filter set
// is resolvable — the initialization tables that need an entry for it.
func CompatiblePaths(filters []lang.Filter) ([]pkt.ParseBitmap, error) {
	var need pkt.ParseBitmap
	for _, f := range filters {
		bits, ok := filterFieldBits[f.Field]
		if !ok {
			return nil, fmt.Errorf("dataplane: field %q cannot be used in a traffic filter", f.Field)
		}
		need |= bits
	}
	var out []pkt.ParseBitmap
	for _, path := range pkt.ParsePaths {
		if path.Has(need) {
			out = append(out, path)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("dataplane: no parsing path provides the filtered fields")
	}
	return out, nil
}

// FilterKeys builds the ternary key vector of one init-table entry for the
// given parsing path from a program's filter tuples.
func FilterKeys(filters []lang.Filter, path pkt.ParseBitmap) ([]rmt.TernaryKey, error) {
	keys := make([]rmt.TernaryKey, filterKeyCount)
	keys[fkBitmap] = rmt.Exact(uint32(path))
	for _, f := range filters {
		idx, ok := filterFieldIndex[f.Field]
		if !ok {
			return nil, fmt.Errorf("dataplane: field %q cannot be used in a traffic filter", f.Field)
		}
		if keys[idx].Mask != 0 {
			return nil, fmt.Errorf("dataplane: duplicate filter on key position %d (field %q)", idx, f.Field)
		}
		keys[idx] = rmt.TernaryKey{Value: f.Value, Mask: f.Mask}
	}
	return keys, nil
}
