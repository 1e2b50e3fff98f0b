package experiments

import (
	"p4runpro/internal/hashing"
	"p4runpro/internal/pkt"
	"p4runpro/internal/rmt"
)

// Conventional-P4 reference switches for the §6.4 case studies: behaviour-
// equivalent native implementations of the standalone P4 programs, with the
// conventional workflow's cost modeled as a reprovisioning downtime window
// (the switch forwards nothing while the new image loads and ports re-
// enable). Each reference injects per packet and replays through
// traffic.PerPacket.

// refMode is the lifecycle of a conventional switch during a case study.
type refMode int

const (
	refForwardOnly refMode = iota // base image: forwarding table only
	refDown                       // reprovisioning: all traffic lost
	refProgram                    // new image active
)

// refBase carries the mode switching shared by the references.
type refBase struct {
	mode refMode
}

// BeginReprovision models loading the new binary image (traffic stops).
func (r *refBase) BeginReprovision() { r.mode = refDown }

// FinishReprovision activates the new program.
func (r *refBase) FinishReprovision() { r.mode = refProgram }

// refCache is the conventional in-network cache program.
type refCache struct {
	refBase
	fwdPort  int
	missPort int
	keys     map[uint64]uint32 // cached keys -> values
}

func newRefCache(fwdPort, missPort int, cached []uint64) *refCache {
	keys := make(map[uint64]uint32, len(cached))
	for _, k := range cached {
		keys[k] = 0
	}
	return &refCache{fwdPort: fwdPort, missPort: missPort, keys: keys}
}

func (r *refCache) Inject(p *pkt.Packet, inPort int) rmt.Result {
	switch r.mode {
	case refDown:
		return rmt.Result{Verdict: rmt.VerdictDropped, OutPort: -1, Packet: p, Passes: 1}
	case refForwardOnly:
		return rmt.Result{Verdict: rmt.VerdictForwarded, OutPort: r.fwdPort, Packet: p, Passes: 1}
	}
	if p.NC == nil {
		return rmt.Result{Verdict: rmt.VerdictForwarded, OutPort: r.missPort, Packet: p, Passes: 1}
	}
	key := uint64(p.NC.Key2)<<32 | uint64(p.NC.Key1)
	v, hit := r.keys[key]
	switch {
	case hit && p.NC.Op == pkt.NCRead:
		p.NC.Value = v
		return rmt.Result{Verdict: rmt.VerdictReflected, OutPort: inPort, Packet: p, Passes: 1}
	case hit && p.NC.Op == pkt.NCWrite:
		r.keys[key] = p.NC.Value
		return rmt.Result{Verdict: rmt.VerdictDropped, OutPort: -1, Packet: p, Passes: 1}
	}
	return rmt.Result{Verdict: rmt.VerdictForwarded, OutPort: r.missPort, Packet: p, Passes: 1}
}

// refLB is the conventional stateless load balancer, using the same CRC-16
// family as the data plane's hash units.
type refLB struct {
	refBase
	fwdPort int
	crc     *hashing.CRC16
	buckets uint32
	ports   []int
	dips    []uint32
}

func newRefLB(fwdPort int, buckets uint32, ports []int, dips []uint32) *refLB {
	return &refLB{
		fwdPort: fwdPort,
		crc:     hashing.NewCRC16(hashing.CRC16Buypass),
		buckets: buckets, ports: ports, dips: dips,
	}
}

func (r *refLB) Inject(p *pkt.Packet, inPort int) rmt.Result {
	switch r.mode {
	case refDown:
		return rmt.Result{Verdict: rmt.VerdictDropped, OutPort: -1, Packet: p, Passes: 1}
	case refForwardOnly:
		return rmt.Result{Verdict: rmt.VerdictForwarded, OutPort: r.fwdPort, Packet: p, Passes: 1}
	}
	idx := uint32(r.crc.Sum(p.FiveTuple().Bytes())) & (r.buckets - 1)
	if p.IP4 != nil {
		p.IP4.Dst = r.dips[idx%uint32(len(r.dips))]
	}
	port := r.ports[idx%uint32(len(r.ports))]
	return rmt.Result{Verdict: rmt.VerdictForwarded, OutPort: port, Packet: p, Passes: 1}
}

// refHH is the conventional heavy-hitter detector: a 2-row CMS plus 2-row
// Bloom filter at the hash algorithms' native width, against which the
// P4runpro program's mask-step truncated hashes are compared (Figure 13d).
type refHH struct {
	refBase
	fwdPort   int
	rows      uint32
	threshold uint32
	cms       [2][]uint32
	bf        [2][]uint32
	crcs      [4]*hashing.CRC16
	reported  map[pkt.FiveTuple]bool
}

func newRefHH(fwdPort int, rows, threshold uint32) *refHH {
	r := &refHH{fwdPort: fwdPort, rows: rows, threshold: threshold, reported: make(map[pkt.FiveTuple]bool)}
	for i := range r.cms {
		r.cms[i] = make([]uint32, rows)
		r.bf[i] = make([]uint32, rows)
	}
	for i, p := range hashing.StandardCRC16 {
		r.crcs[i] = hashing.NewCRC16(p)
	}
	return r
}

func (r *refHH) Inject(p *pkt.Packet, inPort int) rmt.Result {
	switch r.mode {
	case refDown:
		return rmt.Result{Verdict: rmt.VerdictDropped, OutPort: -1, Packet: p, Passes: 1}
	case refForwardOnly:
		return rmt.Result{Verdict: rmt.VerdictForwarded, OutPort: r.fwdPort, Packet: p, Passes: 1}
	}
	t := p.FiveTuple()
	key := t.Bytes()
	mask := r.rows - 1
	c0 := &r.cms[0][uint32(r.crcs[0].Sum(key))&mask]
	c1 := &r.cms[1][uint32(r.crcs[1].Sum(key))&mask]
	*c0++
	*c1++
	hot := *c0 >= r.threshold && *c1 >= r.threshold
	if hot {
		b0 := &r.bf[0][uint32(r.crcs[2].Sum(key))&mask]
		b1 := &r.bf[1][uint32(r.crcs[3].Sum(key))&mask]
		seen := *b0 == 1 && *b1 == 1
		*b0, *b1 = 1, 1
		if !seen {
			r.reported[t] = true
			return rmt.Result{Verdict: rmt.VerdictToCPU, OutPort: -1, Packet: p, Passes: 1}
		}
	}
	return rmt.Result{Verdict: rmt.VerdictForwarded, OutPort: r.fwdPort, Packet: p, Passes: 1}
}
