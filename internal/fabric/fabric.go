// Package fabric wires simulated RMT switches into multi-switch topologies
// and routes traffic across them. The paper evaluates P4runpro on a single
// Tofino; a production deployment is a connected fabric, and every
// end-to-end scenario — fleet-wide heavy-hitter aggregation, cache
// hierarchies with upstream miss traffic, topology-aware placement — needs
// packets to actually cross switch boundaries.
//
// A Fabric holds named nodes (each owning an rmt.Switch) and directed Links
// between (node, port) endpoints. The forwarding engine takes each
// rmt.Result a switch produces and injects the packet into the peer
// endpoint of the link its egress port is wired to; ports without a link
// are edge ports, where packets enter and leave the fabric. Every packet
// carries a hop budget (TTL): each link traversal spends one hop, and a
// packet that still needs a link at zero budget is dropped and counted, so
// routing loops terminate deterministically instead of spinning. Links can
// be degraded through the deterministic fault registry (internal/faults) —
// each link registers a loss injection point — and carry a simulated
// propagation latency that stitched path traces accumulate.
//
// Replay (replay.go) feeds timed traffic into edge ports and batches every
// hop through Switch.InjectBatch, so the burst path's throughput carries
// across the fabric. Path telemetry (trace.go) samples one in N edge packets
// and forces a postcard at every hop (the packet rides the burst with its
// trace ID), stitching the per-switch records into end-to-end path traces
// keyed by a fabric-assigned packet ID.
package fabric

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"p4runpro/internal/faults"
	"p4runpro/internal/obs"
	"p4runpro/internal/pkt"
	"p4runpro/internal/rmt"
)

// DefaultTTL is the hop budget packets start with unless Options overrides
// it: generous for any sane topology, small enough that a routing loop
// resolves in microseconds.
const DefaultTTL = 16

// PortBase is the first port index the topology builders use for fabric
// (inter-switch) links, leaving the low ports free for edge traffic.
const PortBase = 48

// Endpoint names one side of a link: a node and a port on it.
type Endpoint struct {
	Node string
	Port int
}

func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Node, e.Port) }

// Link is one directed fabric connection. Two mirrored Links model a cable.
type Link struct {
	From, To Endpoint
	// Latency is the link's simulated propagation delay, accumulated into
	// stitched path traces (no wall-clock sleeping happens).
	Latency time.Duration

	// loss is the link's fault-injection point: when armed (see
	// internal/faults), selected traversals drop on the wire.
	loss *faults.Point
	to   *Node // To.Node, resolved at wiring

	tx    atomic.Uint64 // packets offered to the link
	rx    atomic.Uint64 // packets delivered to the peer endpoint
	drops atomic.Uint64 // packets lost to an armed fault
}

// String renders the link as "a:2->b:3", the form used in metric labels and
// fault-point names.
func (l *Link) String() string { return l.From.String() + "->" + l.To.String() }

// LossPoint returns the name of the link's fault-injection point
// ("fabric.link.a:2->b:3"); arm it through internal/faults to drop selected
// traversals.
func (l *Link) LossPoint() string { return "fabric.link." + l.String() }

// Stats returns the link's traversal counters.
func (l *Link) Stats() (tx, rx, drops uint64) {
	return l.tx.Load(), l.rx.Load(), l.drops.Load()
}

// Node is one switch of the fabric.
type Node struct {
	Name string
	SW   *rmt.Switch

	// links is the node's outgoing links indexed by port (nil: an edge
	// port), so a hop resolves its link without hashing.
	links []*Link

	// Fabric-lifetime counters, exported through the fabric's metrics
	// registry and added to once per wave (see wave).
	injected  atomic.Uint64 // packets entering this node (edge + fabric)
	forwarded atomic.Uint64 // packets pushed onto an outgoing fabric link
	delivered atomic.Uint64 // packets that exited the fabric here
	dropped   atomic.Uint64 // packets dropped by a switch verdict here
	consumed  atomic.Uint64 // packets reported to this node's CPU
}

// Options tunes a Fabric. The zero value is usable: TTL 16, path sampling
// disabled.
type Options struct {
	// TTL is the hop budget assigned to packets entering at an edge: the
	// number of link traversals each may make before being dropped as
	// looped. Default DefaultTTL.
	TTL int
	// PathSampleEvery samples one in every N edge packets for stitched
	// path tracing (a forced postcard at every hop). 0 disables.
	PathSampleEvery int
}

func (o Options) withDefaults() Options {
	if o.TTL <= 0 {
		o.TTL = DefaultTTL
	}
	return o
}

// Fabric is a set of named switches wired port-to-port. Topology (nodes and
// links) is provisioning-time state: build it before injecting traffic,
// exactly as tables are added to a switch before packets flow. The
// forwarding paths themselves are safe for concurrent injection.
type Fabric struct {
	// Obs is the fabric's metrics registry: end-to-end outcome counters,
	// per-link tx/rx/drop counters, and per-node packet accounting.
	Obs *obs.Registry

	opt    Options
	nodes  map[string]*Node
	order  []string
	nlinks int

	delivered  atomic.Uint64
	dropped    atomic.Uint64
	consumed   atomic.Uint64
	ttlExpired atomic.Uint64
	linkLost   atomic.Uint64

	pathSeq atomic.Uint64 // edge injections, drives the 1-in-N path sampler
	pathID  atomic.Uint64 // assigns stitched trace IDs

	// spare is one forwarding-engine scratch kept between Inject and Replay
	// calls, so a call does not rebuild its wave buffers; a concurrent call
	// that finds it taken builds its own. Its buffers are zeroed as they are
	// emptied, so it keeps no packet of a finished call reachable.
	spare atomic.Pointer[engineScratch]
}

// New creates an empty fabric.
func New(opt Options) *Fabric {
	f := &Fabric{
		opt:   opt.withDefaults(),
		nodes: make(map[string]*Node),
		Obs:   obs.NewRegistry(),
	}
	f.registerMetrics()
	return f
}

// Add registers a switch as a named fabric node.
func (f *Fabric) Add(name string, sw *rmt.Switch) (*Node, error) {
	if name == "" {
		return nil, fmt.Errorf("fabric: empty node name")
	}
	if sw == nil {
		return nil, fmt.Errorf("fabric: node %q: nil switch", name)
	}
	if _, dup := f.nodes[name]; dup {
		return nil, fmt.Errorf("fabric: node %q already exists", name)
	}
	n := &Node{Name: name, SW: sw}
	f.nodes[name] = n
	f.order = append(f.order, name)
	f.registerNodeMetrics(n)
	return n, nil
}

// Nodes returns the node names in registration order.
func (f *Fabric) Nodes() []string { return append([]string(nil), f.order...) }

// Link returns the directed link leaving (node, port), if wired.
func (f *Fabric) Link(node string, port int) (*Link, bool) {
	n, ok := f.nodes[node]
	if !ok {
		return nil, false
	}
	l := n.link(port)
	return l, l != nil
}

// link returns the link wired at port, nil for an edge port.
func (n *Node) link(port int) *Link {
	if port < 0 || port >= len(n.links) {
		return nil
	}
	return n.links[port]
}

// Links returns every directed link, ordered by source endpoint.
func (f *Fabric) Links() []*Link {
	names := append([]string(nil), f.order...)
	sort.Strings(names)
	out := make([]*Link, 0, f.nlinks)
	for _, name := range names {
		for _, l := range f.nodes[name].links {
			if l != nil {
				out = append(out, l)
			}
		}
	}
	return out
}

// ConnectOneWay wires a directed link from a:ap to b:bp.
func (f *Fabric) ConnectOneWay(a string, ap int, b string, bp int, latency time.Duration) (*Link, error) {
	na, ok := f.nodes[a]
	if !ok {
		return nil, fmt.Errorf("fabric: unknown node %q", a)
	}
	nb, ok := f.nodes[b]
	if !ok {
		return nil, fmt.Errorf("fabric: unknown node %q", b)
	}
	from := Endpoint{a, ap}
	if ap < 0 {
		return nil, fmt.Errorf("fabric: port %s out of range", from)
	}
	if l := na.link(ap); l != nil {
		return nil, fmt.Errorf("fabric: port %s already wired to %s", from, l.To)
	}
	l := &Link{From: from, To: Endpoint{b, bp}, Latency: latency, to: nb}
	l.loss = faults.Register(l.LossPoint())
	for len(na.links) <= ap {
		na.links = append(na.links, nil)
	}
	na.links[ap] = l
	f.nlinks++
	f.registerLinkMetrics(l)
	return l, nil
}

// Connect wires a full-duplex cable between a:ap and b:bp — two mirrored
// directed links sharing the latency.
func (f *Fabric) Connect(a string, ap int, b string, bp int, latency time.Duration) error {
	if _, err := f.ConnectOneWay(a, ap, b, bp, latency); err != nil {
		return err
	}
	_, err := f.ConnectOneWay(b, bp, a, ap, latency)
	return err
}

// hop is one pending injection of the forwarding engine: a packet about to
// enter node n on port, with ttl link traversals of budget left and hops
// already spent.
type hop struct {
	n    *Node
	p    *pkt.Packet
	port int
	ttl  int
	hops int
	tr   *PathTrace
}

// Delivery is the end-to-end outcome of one edge-injected packet. Multicast
// replication can fan one packet into several copies; the counters account
// every copy.
type Delivery struct {
	Delivered  int // copies that exited the fabric on an edge port
	Dropped    int // copies dropped by a switch verdict
	Consumed   int // copies reported to a node CPU
	TTLExpired int // copies dropped by the hop limit
	LinkLost   int // copies lost to an armed link fault
	Hops       int // most link traversals spent by any copy
	// Trace is the stitched path trace when this packet was path-sampled
	// (see Options.PathSampleEvery), nil otherwise.
	Trace *PathTrace
}

// Inject feeds one packet into the fabric at a node's edge port and drives
// it hop by hop to its end-to-end outcome. Safe for concurrent use once the
// topology is built.
func (f *Fabric) Inject(node string, p *pkt.Packet, port int) (Delivery, error) {
	n, ok := f.nodes[node]
	if !ok {
		return Delivery{}, fmt.Errorf("fabric: unknown node %q", node)
	}
	tr := f.samplePath(p)
	scratch := f.takeScratch()
	// The hop histogram lives on the scratch, so a warm Inject allocates
	// nothing.
	res := ReplayResult{Hops: scratch.hops[:0]}
	f.process([]hop{{n: n, p: p, port: port, ttl: f.opt.TTL, tr: tr}}, &res, scratch)
	d := Delivery{
		Delivered:  int(res.Delivered),
		Dropped:    int(res.Dropped),
		Consumed:   int(res.Consumed),
		TTLExpired: int(res.TTLExpired),
		LinkLost:   int(res.LinkLost),
		Trace:      tr,
	}
	for h, c := range res.Hops {
		if c > 0 {
			d.Hops = h
		}
	}
	scratch.hops = emptied(res.Hops)
	f.spare.Store(scratch)
	return d, nil
}

// process drains a frontier of pending injections: every wave batches the
// pending packets per node through InjectBatch (path-sampled packets
// included), routes each result over the links, and repeats until no packet
// is in flight. scratch supplies the reusable per-wave buffers.
func (f *Fabric) process(frontier []hop, res *ReplayResult, scratch *engineScratch) {
	cur := append(scratch.cur[:0], frontier...)
	next := scratch.next[:0]
	for len(cur) > 0 {
		next = emptied(next)
		// Group the wave per node, preserving arrival order within a node.
		for _, h := range cur {
			g, ok := scratch.byNode[h.n]
			if !ok {
				g = scratch.take()
			}
			scratch.byNode[h.n] = append(g, h)
		}
		for _, h := range cur {
			pending, ok := scratch.byNode[h.n]
			if !ok || len(pending) == 0 {
				continue // node already flushed this wave
			}
			delete(scratch.byNode, h.n)
			next = f.flushNode(h.n, pending, next, res, scratch)
			scratch.stash(pending)
		}
		cur, next = next, cur
	}
	scratch.cur, scratch.next = cur, emptied(next)
}

// flushNode injects one node's pending wave as a single InjectBatch burst,
// in arrival order — a path-traced packet rides the burst with its trace ID,
// which forces its postcard — and routes every result, appending follow-on
// hops to next.
func (f *Fabric) flushNode(n *Node, pending []hop, next []hop, res *ReplayResult, scratch *engineScratch) []hop {
	items := scratch.items[:0]
	for _, h := range pending {
		it := rmt.BatchItem{Pkt: h.p, Port: h.port, TTL: uint32(h.ttl)}
		if h.tr != nil {
			it.PathID = h.tr.ID
		}
		items = append(items, it)
	}
	n.SW.InjectBatch(items)
	w := wave{res: res}
	w.Injected = uint64(len(pending))
	for i, h := range pending {
		if h.tr != nil {
			h.tr.addHop(n.Name, h.port, items[i].Res, items[i].Postcard)
		}
		next = w.route(h, items[i].Res, next)
	}
	w.endLinkRun()
	f.count(n, &w)
	scratch.items = emptied(items)
	return next
}

// wave tallies one node's flush: the outcomes of the packets one InjectBatch
// burst returned, added to the replay result and to the fabric's, the
// node's and the links' counters once per flush rather than once per packet.
type wave struct {
	res *ReplayResult
	NodeStats
	ttlExpired, linkLost uint64 // TTL expiries are in NodeStats.Dropped too
	// link is the link of the current run of copies sent out of one port:
	// rx of them crossed it and drops were lost on it.
	link      *Link
	rx, drops uint64
}

// route classifies one injection result and either terminates the packet
// (delivered, dropped, consumed) or appends its next hops.
func (w *wave) route(h hop, r rmt.Result, next []hop) []hop {
	switch r.Verdict {
	case rmt.VerdictForwarded:
		return w.egress(h, r.OutPort, next)
	case rmt.VerdictReflected:
		return w.egress(h, h.port, next)
	case rmt.VerdictNextHop:
		// Chain-mode emission: the shim-carrying packet leaves on the
		// recirculation port; if that port is wired, the next switch of
		// the chain picks it up.
		return w.egress(h, r.OutPort, next)
	case rmt.VerdictMulticast:
		// Replicate over every target port. Copies beyond the first get a
		// cloned packet so downstream header rewrites stay independent; a
		// traced packet's stitching stops at the replication point (the
		// trace stays a single path).
		if h.tr != nil {
			h.tr.finish(statusReplicated)
			h.tr = nil
		}
		for i, port := range r.OutPorts {
			ch := h
			if i > 0 {
				ch.p = h.p.Clone()
			}
			next = w.egress(ch, port, next)
		}
		if len(r.OutPorts) == 0 {
			w.Dropped++
		}
		return next
	case rmt.VerdictToCPU:
		w.Consumed++
		if h.tr != nil {
			h.tr.finish(statusConsumed)
		}
		return next
	default: // Dropped, NoDecision, RecircOverflow
		w.Dropped++
		if h.tr != nil {
			h.tr.finish(statusDropped)
		}
		return next
	}
}

// egress sends a packet out (node, port): across the link wired there, or
// off the fabric when the port is an edge.
func (w *wave) egress(h hop, port int, next []hop) []hop {
	lk := h.n.link(port)
	if lk == nil {
		w.Delivered++
		w.res.countHops(h.hops)
		if h.tr != nil {
			h.tr.setExit(port)
			h.tr.finish(statusDelivered)
		}
		return next
	}
	if h.ttl <= 0 {
		// Hop budget exhausted with another link to cross: the packet is
		// looping — drop it deterministically.
		w.ttlExpired++
		w.Dropped++
		if h.tr != nil {
			h.tr.finish(statusTTLExpired)
		}
		return next
	}
	if lk != w.link {
		w.endLinkRun()
		w.link = lk
	}
	w.Forwarded++
	if err := lk.loss.Check(); err != nil {
		w.drops++
		w.linkLost++
		if h.tr != nil {
			h.tr.finish(statusLinkLost)
		}
		return next
	}
	w.rx++
	if h.tr != nil {
		h.tr.addLink(lk)
	}
	return append(next, hop{
		n:    lk.to,
		p:    h.p,
		port: lk.To.Port,
		ttl:  h.ttl - 1,
		hops: h.hops + 1,
		tr:   h.tr,
	})
}

// endLinkRun adds the current link run to the link's counters.
func (w *wave) endLinkRun() {
	if lk := w.link; lk != nil {
		lk.tx.Add(w.rx + w.drops)
		addNonZero(&lk.rx, w.rx)
		addNonZero(&lk.drops, w.drops)
		w.link, w.rx, w.drops = nil, 0, 0
	}
}

// count adds a finished wave at node n to the replay result and to the
// fabric's and the node's counters.
func (f *Fabric) count(n *Node, w *wave) {
	dropped := w.Dropped - w.ttlExpired // by a switch verdict
	res := w.res
	res.Delivered += w.Delivered
	res.Dropped += dropped
	res.Consumed += w.Consumed
	res.TTLExpired += w.ttlExpired
	res.LinkLost += w.linkLost
	if res.PerNode != nil {
		ns := res.PerNode[n.Name]
		if ns == nil {
			ns = &NodeStats{}
			res.PerNode[n.Name] = ns
		}
		ns.Injected += w.Injected
		ns.Forwarded += w.Forwarded
		ns.Delivered += w.Delivered
		ns.Dropped += w.Dropped
		ns.Consumed += w.Consumed
	}
	addNonZero(&n.injected, w.Injected)
	addNonZero(&n.forwarded, w.Forwarded)
	addNonZero(&n.delivered, w.Delivered)
	addNonZero(&n.dropped, w.Dropped)
	addNonZero(&n.consumed, w.Consumed)
	addNonZero(&f.delivered, w.Delivered)
	addNonZero(&f.dropped, dropped)
	addNonZero(&f.consumed, w.Consumed)
	addNonZero(&f.ttlExpired, w.ttlExpired)
	addNonZero(&f.linkLost, w.linkLost)
}

// addNonZero adds v to c, skipping the locked add when there is nothing to
// add.
func addNonZero(c *atomic.Uint64, v uint64) {
	if v > 0 {
		c.Add(v)
	}
}

// engineScratch holds the forwarding engine's reusable wave buffers. Kept
// in Fabric.spare between calls, they stop allocating once warm.
type engineScratch struct {
	edge      []hop // Replay's edge injections awaiting the next flush
	cur, next []hop
	byNode    map[*Node][]hop
	items     []rmt.BatchItem
	free      [][]hop
	hops      []uint64 // Inject's delivery hop histogram
}

// takeScratch returns the fabric's spare engine scratch, or a new one when
// another call holds it. The caller stores it back in f.spare when done.
func (f *Fabric) takeScratch() *engineScratch {
	if s := f.spare.Swap(nil); s != nil {
		return s
	}
	return &engineScratch{byNode: make(map[*Node][]hop)}
}

func (s *engineScratch) stash(h []hop) { s.free = append(s.free, emptied(h)) }

// emptied zeroes a used wave buffer and returns it at length 0, so a scratch
// kept in Fabric.spare holds no packet, result, postcard or path trace of a
// finished call.
func emptied[T any](s []T) []T {
	clear(s)
	return s[:0]
}

func (s *engineScratch) take() []hop {
	if n := len(s.free); n > 0 {
		h := s.free[n-1]
		s.free = s.free[:n-1]
		return h
	}
	return nil
}
