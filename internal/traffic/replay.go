package traffic

import (
	"p4runpro/internal/pkt"
	"p4runpro/internal/rmt"
)

// Injector is the replay engine's view of a switch: it processes a burst of
// packets in order, filling each item's Res in place (satisfied by
// *rmt.Switch). Per-packet models adapt through PerPacket.
type Injector interface {
	InjectBatch(items []rmt.BatchItem)
}

// PerPacket adapts a per-packet inject function — a reference model, a
// chain, a test fake — to Injector.
type PerPacket func(p *pkt.Packet, inPort int) rmt.Result

// InjectBatch implements Injector by injecting each item in order.
func (f PerPacket) InjectBatch(items []rmt.BatchItem) {
	for i := range items {
		items[i].Res = f(items[i].Pkt, items[i].Port)
	}
}

// Action is a scheduled control-plane operation during replay (e.g. "deploy
// the cache program at 5 s", as in every Figure 13 case study).
type Action struct {
	AtMs float64
	Do   func()
}

// Series is a per-bucket rate series in Mbps.
type Series struct {
	BucketMs float64
	Values   []float64
}

// Times returns the bucket midpoints in seconds, for table rendering.
func (s Series) Times() []float64 {
	out := make([]float64, len(s.Values))
	for i := range out {
		out[i] = (float64(i) + 0.5) * s.BucketMs / 1000
	}
	return out
}

// Mean returns the series mean over [fromMs, toMs).
func (s Series) Mean(fromMs, toMs float64) float64 {
	lo := int(fromMs / s.BucketMs)
	hi := int(toMs / s.BucketMs)
	if hi > len(s.Values) {
		hi = len(s.Values)
	}
	if lo >= hi {
		return 0
	}
	sum := 0.0
	for _, v := range s.Values[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}

// Result accumulates replay outcomes at the paper's 50 ms sampling
// granularity.
type Result struct {
	Forwarded Series // bytes leaving on any egress port
	Reflected Series // bytes RETURNed to the sender
	Dropped   Series
	ToCPU     Series
	PerPort   map[int]*Series // forwarded bytes per egress port

	Verdicts map[rmt.Verdict]int
	Packets  int
}

// Replay pushes the trace through the injector on one worker, firing
// scheduled actions at their simulated times, and bucketing outcomes every
// bucketMs (50 in the paper). Optional hooks fire once per completed bucket
// (with its index), letting case studies sample control-plane state — e.g.
// draining reported heavy hitters — at the measurement cadence. It is
// ReplayParallel with one worker.
func Replay(tr *Trace, inj Injector, sched []Action, bucketMs float64, hooks ...func(bucket int)) *Result {
	return ReplayParallel(tr, inj, sched, bucketMs, 1, hooks...)
}

func toMbps(s *Series) {
	f := 8 / (s.BucketMs / 1000) / 1e6
	for i := range s.Values {
		s.Values[i] *= f
	}
}

// F1 scores a reported flow set against ground truth.
func F1(reported, truth map[pkt.FiveTuple]bool) float64 {
	if len(reported) == 0 || len(truth) == 0 {
		return 0
	}
	tp := 0
	for f := range reported {
		if truth[f] {
			tp++
		}
	}
	precision := float64(tp) / float64(len(reported))
	recall := float64(tp) / float64(len(truth))
	if precision+recall == 0 {
		return 0
	}
	return 2 * precision * recall / (precision + recall)
}
