package fabric

import (
	"fmt"
	"strings"
	"time"

	"p4runpro/internal/pkt"
	"p4runpro/internal/rmt"
)

// PathStatus is the end-to-end outcome of a traced packet.
type PathStatus uint8

const (
	statusInFlight PathStatus = iota
	statusDelivered
	statusDropped
	statusConsumed
	statusTTLExpired
	statusLinkLost
	statusReplicated
)

func (s PathStatus) String() string {
	switch s {
	case statusInFlight:
		return "in-flight"
	case statusDelivered:
		return "delivered"
	case statusDropped:
		return "dropped"
	case statusConsumed:
		return "to-cpu"
	case statusTTLExpired:
		return "ttl-expired"
	case statusLinkLost:
		return "link-lost"
	case statusReplicated:
		return "replicated"
	}
	return "unknown"
}

// PathHop is one switch traversal of a stitched path trace: where the
// packet entered, what the pipeline decided, and the per-switch postcard
// (stage-by-stage table hits) recorded for it.
type PathHop struct {
	Node    string
	InPort  int
	OutPort int
	Verdict rmt.Verdict
	// Postcard is the per-switch telemetry record forced for this hop; its
	// PathID carries the trace's ID, which is how the stitching is keyed.
	Postcard *rmt.Postcard
}

// PathTrace is an end-to-end record of one sampled packet's journey across
// the fabric: each hop's per-switch postcard stitched together under one
// fabric-assigned packet ID, plus the accumulated link latency. A trace
// follows a single copy — multicast replication ends it with status
// "replicated".
type PathTrace struct {
	ID       uint64
	Flow     pkt.FiveTuple
	Hops     []PathHop
	Status   PathStatus
	ExitPort int // edge port the packet left on (when delivered)
	// Latency is the sum of traversed links' configured latencies.
	Latency time.Duration
}

// Delivered reports whether the traced packet exited the fabric.
func (t *PathTrace) Delivered() bool { return t.Status == statusDelivered }

// String renders the trace compactly: "path 7 [delivered, 2 hops, 20µs]:
// leaf0:1 -> spine0:48 -> leaf1:49 => port 2".
func (t *PathTrace) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "path %d [%s, %d hops, %s]: ", t.ID, t.Status, len(t.Hops)-1, t.Latency)
	for i, h := range t.Hops {
		if i > 0 {
			b.WriteString(" -> ")
		}
		fmt.Fprintf(&b, "%s:%d", h.Node, h.InPort)
	}
	if t.Status == statusDelivered {
		fmt.Fprintf(&b, " => port %d", t.ExitPort)
	}
	return b.String()
}

func (t *PathTrace) addHop(node string, inPort int, r rmt.Result, pc *rmt.Postcard) {
	if len(t.Hops) == 0 && pc != nil {
		t.Flow = pc.Flow
	}
	t.Hops = append(t.Hops, PathHop{
		Node:     node,
		InPort:   inPort,
		OutPort:  r.OutPort,
		Verdict:  r.Verdict,
		Postcard: pc,
	})
}

func (t *PathTrace) addLink(lk *Link) { t.Latency += lk.Latency }

func (t *PathTrace) setExit(port int) { t.ExitPort = port }

func (t *PathTrace) finish(status PathStatus) {
	if t.Status == statusInFlight {
		t.Status = status
	}
}

// samplePath decides, once per edge injection, whether this packet is path
// traced (Options.PathSampleEvery).
func (f *Fabric) samplePath(p *pkt.Packet) *PathTrace {
	n := f.opt.PathSampleEvery
	if n <= 0 {
		return nil
	}
	if f.pathSeq.Add(1)%uint64(n) != 1 && n != 1 {
		return nil
	}
	return &PathTrace{ID: f.pathID.Add(1), Flow: p.FiveTuple()}
}
