package rmt

import (
	"sync"
	"sync/atomic"
	"time"

	"p4runpro/internal/pkt"
)

// Packet postcards are INT-style sampled path traces: one in every N injected
// packets is tagged at the parser, every match-action hop it takes is
// recorded (stage, table, action fired, owning program), and at deparsing the
// assembled record — verdict, passes, recirculations, and wall-clock latency
// included — is published into a lock-free ring holding the last K postcards.
// The unsampled fast path pays one atomic load plus one atomic add per packet
// and allocates nothing; the sampled path reuses a pooled trace buffer, so
// postcard memory pressure is bounded by the ring, not the packet rate.
//
// This is the observability analogue of in-band network telemetry on a real
// RMT chip: the paper's programs are opaque once linked, and postcards are
// how an operator sees *which* program's entries a live packet actually
// traversed, without perturbing line-rate forwarding.

// maxPostcardHops bounds one postcard's hop list. A packet that executes
// more hops (many recirculation passes on a deep pipeline) keeps its first
// maxPostcardHops and sets Truncated.
const maxPostcardHops = 64

// PostcardHop is one executed match-action step of a sampled packet.
type PostcardHop struct {
	Gress  Gress
	Stage  int
	Table  string
	Action string // action fired (entry action, or the table default on a miss)
	Owner  string // program owning the matched entry; "" for a default action
	Match  bool   // true: an installed entry matched; false: default action fired
}

// Postcard is the recorded path of one sampled packet.
type Postcard struct {
	Seq    uint64 // monotonically increasing postcard number
	InPort int
	// PathID is the fabric-assigned end-to-end path-trace ID for packets
	// traced across a multi-switch topology (see BatchItem.PathID); zero for
	// postcards sampled by the switch's own 1-in-N sampler.
	PathID    uint64
	Flow      pkt.FiveTuple
	Verdict   Verdict
	OutPort   int
	Passes    int
	Recircs   int
	Latency   time.Duration // pipeline wall-clock time for this packet
	Hops      []PostcardHop
	Truncated bool // hop list hit maxPostcardHops
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

// pathTrace is the pooled per-packet recording buffer attached to a sampled
// packet's PHV. It is reused across samples; hops keeps its backing array.
type pathTrace struct {
	hops      [maxPostcardHops]PostcardHop
	n         int
	truncated bool
	recircs   int
	start     time.Time
}

func (tr *pathTrace) reset() {
	tr.n = 0
	tr.truncated = false
	tr.recircs = 0
}

// hop appends one executed match-action step, dropping (and flagging) past
// the hop bound.
func (tr *pathTrace) hop(h PostcardHop) {
	if tr.n >= maxPostcardHops {
		tr.truncated = true
		return
	}
	tr.hops[tr.n] = h
	tr.n++
}

// postcardRing is a lock-free fixed-size ring of the most recent postcards.
// Writers claim a slot with one atomic add and publish the record with one
// atomic pointer store; readers snapshot the slots without blocking writers.
// A reader racing a wrap-around may observe a postcard newer than the
// chronological window it reconstructs — acceptable for a diagnostic buffer,
// the same trade the switch's quantile scrapes make.
type postcardRing struct {
	slots []atomic.Pointer[Postcard]
	next  atomic.Uint64
}

func newPostcardRing(keep int) *postcardRing {
	return &postcardRing{slots: make([]atomic.Pointer[Postcard], keep)}
}

func (r *postcardRing) put(p *Postcard) {
	idx := r.next.Add(1) - 1
	r.slots[idx%uint64(len(r.slots))].Store(p)
}

// snapshot returns up to limit of the most recent postcards, oldest first.
// limit <= 0 means the whole ring.
func (r *postcardRing) snapshot(limit int) []*Postcard {
	written := r.next.Load()
	n := int(written)
	if n > len(r.slots) {
		n = len(r.slots)
	}
	if limit > 0 && n > limit {
		n = limit
	}
	out := make([]*Postcard, 0, n)
	for i := written - uint64(n); i < written; i++ {
		if p := r.slots[i%uint64(len(r.slots))].Load(); p != nil {
			out = append(out, p)
		}
	}
	return out
}

// postcardState is the switch's sampling configuration and buffers. every and
// ring are read on the packet path with single atomic loads so sampling can
// be reconfigured while traffic is in flight.
type postcardState struct {
	every atomic.Uint32 // sample one in every N packets; 0 disables
	seq   atomic.Uint64 // arrival counter driving the 1-in-N decision
	count atomic.Uint64 // postcards recorded since provisioning
	ring  atomic.Pointer[postcardRing]
	pool  *sync.Pool // *pathTrace
}

// EnablePostcards samples one in every `every` injected packets into a ring
// of the last `keep` postcards. every <= 0 disables sampling (the default);
// keep <= 0 selects 256. Reconfiguring while traffic is in flight is safe:
// packets sampled against the old ring finish recording into it.
func (s *Switch) EnablePostcards(every, keep int) {
	if every <= 0 {
		s.post.every.Store(0)
		return
	}
	if keep <= 0 {
		keep = 256
	}
	s.post.ring.Store(newPostcardRing(keep))
	s.post.every.Store(uint32(every))
}

// PostcardConfig reports the sampling interval (0 = disabled) and ring size.
func (s *Switch) PostcardConfig() (every, keep int) {
	every = int(s.post.every.Load())
	if r := s.post.ring.Load(); r != nil {
		keep = len(r.slots)
	}
	return every, keep
}

// PostcardCount returns how many postcards have been recorded since
// provisioning (including ones the ring has since overwritten).
func (s *Switch) PostcardCount() uint64 { return s.post.count.Load() }

// Postcards returns up to limit of the most recent postcards, oldest first,
// optionally filtered to packets that matched an entry owned by owner.
// limit <= 0 returns the whole ring. The returned records are immutable
// snapshots; the caller may hold them indefinitely.
func (s *Switch) Postcards(owner string, limit int) []Postcard {
	r := s.post.ring.Load()
	if r == nil {
		return nil
	}
	// Over-fetch when filtering so a busy switch still returns `limit`
	// postcards for a quiet program when the ring holds them.
	fetch := limit
	if owner != "" {
		fetch = 0
	}
	snap := r.snapshot(fetch)
	out := make([]Postcard, 0, len(snap))
	for _, p := range snap {
		if owner != "" && !postcardMatchesOwner(p, owner) {
			continue
		}
		out = append(out, *p)
	}
	if owner != "" && limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

func postcardMatchesOwner(p *Postcard, owner string) bool {
	for _, h := range p.Hops {
		if h.Owner == owner {
			return true
		}
	}
	return false
}

// tracePacket decides whether this injection records a postcard and, when it
// does, returns a recording buffer to attach to the packet's PHV. A
// path-traced packet (pathID != 0) always records, without advancing the
// 1-in-N sampler: the fabric decides sampling at the topology edge and forces
// a postcard at every hop of the chosen packet. Otherwise the disabled path
// is a single atomic load.
func (s *Switch) tracePacket(pathID uint64) *pathTrace {
	if pathID == 0 {
		every := s.post.every.Load()
		if every == 0 || s.post.seq.Add(1)%uint64(every) != 0 {
			return nil
		}
	}
	tr, _ := s.post.pool.Get().(*pathTrace)
	if tr == nil {
		tr = &pathTrace{}
	}
	tr.reset()
	tr.start = time.Now()
	return tr
}

// recordPostcard assembles a finished trace buffer into an immutable
// postcard, publishes it to the ring when postcards are enabled, returns the
// buffer to the pool, and returns the postcard.
func (s *Switch) recordPostcard(tr *pathTrace, it *BatchItem) *Postcard {
	pc := &Postcard{
		Seq:       s.post.count.Add(1),
		InPort:    it.Port,
		PathID:    it.PathID,
		Flow:      it.Pkt.FiveTuple(),
		Verdict:   it.Res.Verdict,
		OutPort:   it.Res.OutPort,
		Passes:    it.Res.Passes,
		Recircs:   tr.recircs,
		Latency:   time.Since(tr.start),
		Hops:      append([]PostcardHop(nil), tr.hops[:tr.n]...),
		Truncated: tr.truncated,
	}
	if ring := s.post.ring.Load(); ring != nil {
		ring.put(pc)
	}
	s.post.pool.Put(tr)
	return pc
}
