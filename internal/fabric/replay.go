package fabric

import (
	"fmt"
	"sort"
	"time"

	"p4runpro/internal/traffic"
)

// ReplayOptions tunes fabric-wide replay.
type ReplayOptions struct {
	// Batch is the edge-injection burst size: events accumulate into a
	// frontier of this many packets, then the whole burst is driven hop by
	// hop through the fabric (each hop a per-node InjectBatch). Default 256.
	Batch int
	// DefaultNode receives events whose Node is empty (single-feed traces
	// generated without MergeFeeds). Defaults to the first registered node.
	DefaultNode string
}

// NodeStats is the per-node accounting of one replay (or one Inject).
type NodeStats struct {
	Injected  uint64 // packets entering the node (edge + fabric links)
	Forwarded uint64 // packets pushed onto an outgoing fabric link
	Delivered uint64 // packets that exited the fabric at this node
	Dropped   uint64 // packets dropped here (verdicts + TTL expiry)
	Consumed  uint64 // packets reported to this node's CPU
}

// ReplayResult is the end-to-end outcome of a fabric replay.
type ReplayResult struct {
	Packets    uint64 // packets injected at the edges
	Delivered  uint64 // copies that exited the fabric on an edge port
	Dropped    uint64 // copies dropped by switch verdicts
	Consumed   uint64 // copies reported to a node CPU
	TTLExpired uint64 // copies dropped by the hop limit (routing loops)
	LinkLost   uint64 // copies lost to armed link faults

	PerNode map[string]*NodeStats
	// Hops is the delivery hop histogram: Hops[h] counts delivered copies
	// that crossed h fabric links end to end.
	Hops []uint64
	// Traces are the stitched path traces sampled during this replay.
	Traces  []*PathTrace
	Elapsed time.Duration
}

func (r *ReplayResult) countHops(h int) {
	if h >= len(r.Hops) {
		r.Hops = append(r.Hops, make([]uint64, h+1-len(r.Hops))...)
	}
	r.Hops[h]++
}

// PPS returns the end-to-end replay throughput in packets per second.
func (r *ReplayResult) PPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Packets) / r.Elapsed.Seconds()
}

// Replay drives a time-ordered trace into the fabric's edge ports and each
// packet across however many switches its programs forward it through,
// firing scheduled control-plane actions at their simulated times. Events
// name their entry node (traffic.MergeFeeds stamps it); events with an
// empty Node fall back to opts.DefaultNode. Edge injections are batched
// (opts.Batch) so the bulk of the traffic rides the InjectBatch path at
// every hop; scheduled actions are flush barriers — all packets
// injected before the action finish their journeys before it runs.
func (f *Fabric) Replay(tr *traffic.Trace, sched []traffic.Action, opts ReplayOptions) (*ReplayResult, error) {
	if opts.Batch <= 0 {
		opts.Batch = 256
	}
	if opts.DefaultNode == "" {
		if len(f.order) == 0 {
			return nil, fmt.Errorf("fabric: replay on empty fabric")
		}
		opts.DefaultNode = f.order[0]
	}
	start := time.Now()
	sort.SliceStable(sched, func(i, j int) bool { return sched[i].AtMs < sched[j].AtMs })

	res := &ReplayResult{PerNode: make(map[string]*NodeStats)}
	scratch := f.takeScratch()
	frontier := scratch.edge[:0]
	defer func() {
		scratch.edge = emptied(frontier)
		f.spare.Store(scratch)
	}()
	flush := func() {
		if len(frontier) > 0 {
			f.process(frontier, res, scratch)
			frontier = emptied(frontier)
		}
	}
	next := 0
	for _, ev := range tr.Events {
		for next < len(sched) && sched[next].AtMs <= ev.AtMs {
			flush()
			sched[next].Do()
			next++
		}
		name := ev.Node
		if name == "" {
			name = opts.DefaultNode
		}
		n, ok := f.nodes[name]
		if !ok {
			return nil, fmt.Errorf("fabric: replay event for unknown node %q", name)
		}
		res.Packets++
		ptr := f.samplePath(ev.Pkt)
		if ptr != nil {
			res.Traces = append(res.Traces, ptr)
		}
		frontier = append(frontier, hop{n: n, p: ev.Pkt, port: ev.Port, ttl: f.opt.TTL, tr: ptr})
		if len(frontier) >= opts.Batch {
			flush()
		}
	}
	flush()
	for next < len(sched) {
		sched[next].Do()
		next++
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
