package rmt

import (
	"fmt"
	"sort"

	"p4runpro/internal/pkt"
)

// PHVLayout records the scratch fields a data-plane program has allocated in
// the packet header vector, for both access and resource accounting. Fields
// are defined once at provisioning time; the layout is immutable at runtime,
// exactly like real PHV allocation.
type PHVLayout struct {
	fields map[string]phvField
	order  []string
	bits   int
	limit  int
}

type phvField struct {
	index int
	bits  int
}

// NewPHVLayout creates an empty layout bounded by the chip's PHV capacity.
func NewPHVLayout(limitBits int) *PHVLayout {
	return &PHVLayout{fields: make(map[string]phvField), limit: limitBits}
}

// Define allocates a named scratch field of the given width (1–32 bits).
func (l *PHVLayout) Define(name string, bits int) error {
	if bits < 1 || bits > 32 {
		return fmt.Errorf("rmt: phv field %q: width %d out of range [1,32]", name, bits)
	}
	if _, dup := l.fields[name]; dup {
		return fmt.Errorf("rmt: phv field %q already defined", name)
	}
	if l.bits+bits > l.limit {
		return fmt.Errorf("rmt: phv exhausted: %d+%d > %d bits", l.bits, bits, l.limit)
	}
	l.fields[name] = phvField{index: len(l.order), bits: bits}
	l.order = append(l.order, name)
	l.bits += bits
	return nil
}

// Bits returns the allocated PHV bits.
func (l *PHVLayout) Bits() int { return l.bits }

// Index resolves a field name to its container index in the PHV value
// vector. Tables use pre-resolved indices to extract keys by direct
// container reads (see Table.SetPHVKeyFields); the layout is immutable after
// provisioning, so a resolved index stays valid for the lifetime of the
// switch.
func (l *PHVLayout) Index(name string) (int, bool) {
	f, ok := l.fields[name]
	return f.index, ok
}

// Fields returns the defined field names in a stable order.
func (l *PHVLayout) Fields() []string {
	out := append([]string(nil), l.order...)
	sort.Strings(out)
	return out
}

// Metadata is the intrinsic metadata portion of the PHV: what the parser and
// traffic manager populate and consume.
type Metadata struct {
	IngressPort int
	EgressSpec  int
	Drop        bool
	Reflect     bool // RETURN: send back out the ingress port
	ToCPU       bool // REPORT
	Recirc      bool // set by the recirculation block
	McastGroup  int  // MULTICAST: nonzero selects a replication group
	QueueDepth  uint32
	PktLen      uint32
	// TTL is the fabric-level hop budget remaining for this packet (link
	// traversals it may still make), stamped at injection by the fabric
	// forwarding engine and surfaced to programs as the meta.ttl
	// intrinsic. Zero for packets injected outside a fabric.
	TTL uint32
}

// PHV is the per-packet header vector flowing through the pipelines: the
// parsed packet, intrinsic metadata, and program-defined scratch fields.
// PHVs injected through a Switch are recycled from a per-switch pool, so a
// PHV must never be retained past the hook or action call it was passed to.
type PHV struct {
	Packet *pkt.Packet
	Meta   Metadata

	layout *PHVLayout
	vals   []uint32

	// memTouched tracks which flat stages' register arrays this packet has
	// already accessed in the current pass, to enforce the hardware's
	// one-stateful-access-per-stage-per-packet rule. Grown lazily on first
	// stateful access; cleared (not freed) on recirculation and reuse.
	memTouched []bool
	// keyBuf is the per-packet scratch slice handed out by KeyScratch so
	// table key extraction allocates nothing on the hot path.
	keyBuf []uint32
	gress  Gress
	stage  int

	// trace, when non-nil, marks this packet as postcard-sampled: each
	// executed match-action hop is recorded into it (see postcard.go). Set
	// by Switch.inject for the sampled 1-in-N; nil on the fast path, so the
	// per-hop cost for unsampled packets is one pointer compare.
	trace *pathTrace

	// tally is the counting scratch of the burst this PHV carries. It
	// outlives reset (it spans the burst's packets) and is flushed into
	// the switch when the burst returns; a PHV made by NewPHV is in no
	// burst, and what it tallies is never counted.
	tally burstTally
}

// NewPHV wraps a parsed packet for one pipeline pass. A nil packet yields a
// PHV with only metadata and scratch fields (used by tests and synthetic
// probes).
func NewPHV(layout *PHVLayout, p *pkt.Packet, ingressPort int) *PHV {
	phv := &PHV{}
	phv.reset(layout, p, ingressPort)
	return phv
}

// reset rebinds a (possibly recycled) PHV to a new packet, zeroing every
// scratch field and per-pass state while keeping the allocated buffers.
func (p *PHV) reset(layout *PHVLayout, q *pkt.Packet, ingressPort int) {
	var pktLen uint32
	if q != nil {
		pktLen = uint32(q.WireLen)
	}
	p.Packet = q
	p.Meta = Metadata{
		IngressPort: ingressPort,
		EgressSpec:  -1,
		PktLen:      pktLen,
	}
	p.layout = layout
	n := len(layout.order)
	if cap(p.vals) < n {
		// The fields and the key scratch share one allocation, so a fresh
		// PHV costs the pool no more objects for carrying a burst tally.
		buf := make([]uint32, n+keyWords)
		p.vals, p.keyBuf = buf[:n:n], buf[n:]
	} else {
		p.vals = p.vals[:n]
		for i := range p.vals {
			p.vals[i] = 0
		}
	}
	for i := range p.memTouched {
		p.memTouched[i] = false
	}
	p.gress, p.stage = Ingress, 0
}

// keyWords is the key scratch reset reserves behind a PHV's fields: room for
// the widest key the data plane declares. KeyScratch grows past it on demand.
const keyWords = 16

// keyScratchRaw returns the n-word scratch slice without zeroing it, for
// Table.Apply's direct key extraction, which overwrites every slot. Same
// lifetime contract as KeyScratch.
func (p *PHV) keyScratchRaw(n int) []uint32 {
	if cap(p.keyBuf) < n {
		p.keyBuf = make([]uint32, n)
	}
	return p.keyBuf[:n]
}

// KeyScratch returns a zeroed n-word scratch slice owned by this PHV, for
// table key-extraction functions: the returned slice is only valid until the
// next KeyScratch call on the same PHV, which is exactly the lifetime of a
// match lookup (Table.Apply consumes the keys before the next table runs).
// Using it instead of allocating keeps the packet path allocation-free.
func (p *PHV) KeyScratch(n int) []uint32 {
	if cap(p.keyBuf) < n {
		p.keyBuf = make([]uint32, n)
	}
	s := p.keyBuf[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// touchMem records a stateful access to flat stage key and reports whether
// that stage was already accessed in this pass.
func (p *PHV) touchMem(key int) bool {
	if key < len(p.memTouched) {
		if p.memTouched[key] {
			return true
		}
		p.memTouched[key] = true
		return false
	}
	grown := make([]bool, key+8)
	copy(grown, p.memTouched)
	p.memTouched = grown
	p.memTouched[key] = true
	return false
}

// Get reads a scratch field; unknown names panic because they indicate a
// provisioning bug, not a runtime condition.
func (p *PHV) Get(name string) uint32 {
	f, ok := p.layout.fields[name]
	if !ok {
		panic(fmt.Sprintf("rmt: undefined phv field %q", name))
	}
	return p.vals[f.index] & widthMask(f.bits)
}

// Set writes a scratch field, truncating to the field width.
func (p *PHV) Set(name string, v uint32) {
	f, ok := p.layout.fields[name]
	if !ok {
		panic(fmt.Sprintf("rmt: undefined phv field %q", name))
	}
	p.vals[f.index] = v & widthMask(f.bits)
}

// ResetPass clears per-pass execution state before a recirculation pass.
// Deferred forwarding verdicts (Drop/Reflect/ToCPU/EgressSpec) persist
// across passes — they are applied by the traffic manager after the final
// pass — only the recirculation request and the stateful-access set reset.
func (p *PHV) ResetPass() {
	for i := range p.memTouched {
		p.memTouched[i] = false
	}
	p.Meta.Recirc = false
}

// CurrentStage reports the pipeline position during action execution, used
// by stateful action helpers to locate the stage's register array.
func (p *PHV) CurrentStage() (Gress, int) { return p.gress, p.stage }

func widthMask(bits int) uint32 {
	if bits >= 32 {
		return ^uint32(0)
	}
	return 1<<uint(bits) - 1
}
