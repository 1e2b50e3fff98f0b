package rmt

import (
	"fmt"
	"sort"
	"sync/atomic"

	"p4runpro/internal/pkt"
)

// Set writes a scratch field, truncating to the field width.
func (p *PHV) Set(name string, v uint32) {
	f, ok := p.layout.fields[name]
	if !ok {
		panic(fmt.Sprintf("rmt: undefined phv field %q", name))
	}
	p.vals[f.index] = v & widthMask(f.bits)
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

// NewPHV wraps a parsed packet for one pipeline pass. A nil packet yields a
// PHV with only metadata and scratch fields (used by tests and synthetic
// probes).
func NewPHV(layout *PHVLayout, p *pkt.Packet, ingressPort int) *PHV {
	phv := &PHV{}
	phv.reset(layout, p, ingressPort)
	return phv
}

// Fields returns the defined field names in a stable order.
func (l *PHVLayout) Fields() []string {
	out := append([]string(nil), l.order...)
	sort.Strings(out)
	return out
}

// Matches reports whether the extracted key value satisfies the ternary key.
func (k TernaryKey) Matches(v uint32) bool { return v&k.Mask == k.Value&k.Mask }

// Wild builds a zero-mask (always-matching) key.
func Wild() TernaryKey { return TernaryKey{} }

// ResetCounters zeroes all port counters (between experiment phases).
func (s *Switch) ResetCounters() {
	for i := range s.ports {
		s.ports[i].pkts.Store(0)
		s.ports[i].bytes.Store(0)
	}
	s.recircPackets.Store(0)
	s.recircBytes.Store(0)
}

// Table finds a table by name.
func (s *Switch) Table(name string) (*Table, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	return t, ok
}

// Owners returns the distinct programs whose entries this packet matched, in
// first-hop order.
func (p *Postcard) Owners() []string {
	var out []string
	for _, h := range p.Hops {
		if h.Owner == "" {
			continue
		}
		dup := false
		for _, o := range out {
			if o == h.Owner {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, h.Owner)
		}
	}
	return out
}

// Apply performs one match-action lookup for the packet and counts a hit on
// the matched entry. It returns whether an entry (or the default action) was
// executed. The match resolves against one immutable snapshot, so concurrent
// updates can never expose a half-updated entry set.
//
// Only tests call Apply, on a table outside any switch. Its hit count is one
// shared atomic add per packet, which the packet path must not pay: the
// switch calls apply and tallies hits per burst (see burstTally).
func (t *Table) Apply(p *PHV) bool {
	e, ran := t.apply(p)
	if e != nil {
		atomic.AddUint64(&e.hits, 1)
	}
	return ran
}
