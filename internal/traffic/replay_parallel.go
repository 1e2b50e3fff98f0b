package traffic

import (
	"math"
	"sort"
	"sync"

	"p4runpro/internal/pkt"
	"p4runpro/internal/rmt"
)

// flowShard maps a packet's 5-tuple to one of n replay workers with an FNV-1a
// hash, so every packet of a flow is processed by the same worker and
// per-flow order is preserved — the property the sketch/cache/LB case
// studies depend on for per-flow determinism.
func flowShard(p *pkt.Packet, n int) int {
	t := p.FiveTuple()
	h := uint32(2166136261)
	mix := func(v uint32) {
		for i := 0; i < 4; i++ {
			h ^= v & 0xff
			h *= 16777619
			v >>= 8
		}
	}
	mix(t.SrcIP)
	mix(t.DstIP)
	mix(uint32(t.SrcPort)<<16 | uint32(t.DstPort))
	mix(uint32(t.Proto))
	return int(h % uint32(n))
}

// replayAcc is one worker's private accumulator; workers never share a
// write target, so recording needs no synchronization. Buckets hold raw
// bytes until the final merge converts to Mbps.
type replayAcc struct {
	forwarded, reflected, dropped, tocpu []float64
	perPort                              map[int][]float64
	verdicts                             [int(rmt.VerdictNextHop) + 1]int
	packets                              int
}

func newReplayAcc(buckets int) *replayAcc {
	return &replayAcc{
		forwarded: make([]float64, buckets),
		reflected: make([]float64, buckets),
		dropped:   make([]float64, buckets),
		tocpu:     make([]float64, buckets),
		perPort:   make(map[int][]float64),
	}
}

func (a *replayAcc) record(ev Event, r rmt.Result, bucketMs float64, buckets int) {
	a.verdicts[r.Verdict]++
	a.packets++
	b := int(ev.AtMs / bucketMs)
	if b >= buckets {
		b = buckets - 1
	}
	bytes := float64(ev.Pkt.WireLen)
	switch r.Verdict {
	case rmt.VerdictForwarded:
		a.forwarded[b] += bytes
		ps, ok := a.perPort[r.OutPort]
		if !ok {
			ps = make([]float64, buckets)
			a.perPort[r.OutPort] = ps
		}
		ps[b] += bytes
	case rmt.VerdictReflected:
		a.reflected[b] += bytes
	case rmt.VerdictDropped, rmt.VerdictNoDecision, rmt.VerdictRecircOverflow:
		a.dropped[b] += bytes
	case rmt.VerdictToCPU:
		a.tocpu[b] += bytes
	}
}

// replayBatchSize bounds one InjectBatch burst: large enough to amortize the
// per-call overheads, small enough that accumulator updates stay
// responsive.
const replayBatchSize = 64

// ReplayParallel is the replay engine. It replays the trace through the
// injector with `workers` concurrent goroutines, sharding packets by 5-tuple
// hash so per-flow packet order is preserved while independent flows proceed
// in parallel — the software analogue of an RMT chip's parallel
// packet-processing engines. Each worker feeds its shard to the injector in
// bursts of up to replayBatchSize events. Bucket values are exact sums, so
// for workloads without cross-flow interaction the output is
// bucket-for-bucket identical at any worker count.
//
// Scheduled actions and per-bucket hooks act as barriers: all events before
// an action's time complete on every worker before the action fires, so a
// table update is consistently ordered against the traffic (the paper's §5
// consistent-update semantics), and hook b fires once bucket b's events —
// and no later ones — are done. Bursts never span a barrier. A replay with
// no actions and no hooks runs the whole trace in one unsynchronized sweep.
//
// workers < 1 means one.
func ReplayParallel(tr *Trace, inj Injector, sched []Action, bucketMs float64, workers int, hooks ...func(bucket int)) *Result {
	if workers < 1 {
		workers = 1
	}

	sort.SliceStable(sched, func(i, j int) bool { return sched[i].AtMs < sched[j].AtMs })
	durationMs := 0.0
	if n := len(tr.Events); n > 0 {
		durationMs = tr.Events[n-1].AtMs
	}
	for _, a := range sched {
		if a.AtMs > durationMs {
			durationMs = a.AtMs
		}
	}
	buckets := int(durationMs/bucketMs) + 1

	// Shard events by flow, preserving intra-shard (and so per-flow) order.
	// One worker replays the trace's own event slice.
	shards := [][]Event{tr.Events}
	if workers > 1 {
		shards = make([][]Event, workers)
		for i := range shards {
			shards[i] = make([]Event, 0, len(tr.Events)/workers+1)
		}
		for _, ev := range tr.Events {
			w := flowShard(ev.Pkt, workers)
			shards[w] = append(shards[w], ev)
		}
	}

	accs := make([]*replayAcc, workers)
	bufs := make([][]rmt.BatchItem, workers)
	for w := range accs {
		accs[w] = newReplayAcc(buckets)
		bufs[w] = make([]rmt.BatchItem, replayBatchSize)
	}
	cursors := make([]int, workers)

	// runUntil processes, on every worker in parallel, all remaining events
	// with AtMs < limit, then joins: a time barrier. A shard's events stay in
	// order within and across bursts, so per-flow order holds.
	runUntil := func(limit float64) {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			if cursors[w] >= len(shards[w]) || shards[w][cursors[w]].AtMs >= limit {
				continue
			}
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sh, acc, buf := shards[w], accs[w], bufs[w]
				i := cursors[w]
				for i < len(sh) && sh[i].AtMs < limit {
					n := 0
					for i+n < len(sh) && sh[i+n].AtMs < limit && n < replayBatchSize {
						buf[n] = rmt.BatchItem{Pkt: sh[i+n].Pkt, Port: sh[i+n].Port}
						n++
					}
					inj.InjectBatch(buf[:n])
					for k := 0; k < n; k++ {
						acc.record(sh[i+k], buf[k].Res, bucketMs, buckets)
					}
					i += n
				}
				cursors[w] = i
			}(w)
		}
		wg.Wait()
	}

	// Barrier points: scheduled actions always; bucket boundaries only when
	// hooks need to observe completed buckets. Sorted by time, actions
	// before hooks on ties.
	type barrier struct {
		at   float64
		fire func()
	}
	bars := make([]barrier, 0, len(sched)+buckets)
	for i := range sched {
		a := sched[i]
		bars = append(bars, barrier{a.AtMs, a.Do})
	}
	if len(hooks) > 0 {
		for b := 0; b < buckets; b++ {
			b := b
			bars = append(bars, barrier{float64(b+1) * bucketMs, func() {
				for _, h := range hooks {
					h(b)
				}
			}})
		}
	}
	sort.SliceStable(bars, func(i, j int) bool { return bars[i].at < bars[j].at })

	for _, bar := range bars {
		runUntil(bar.at)
		bar.fire()
	}
	runUntil(math.Inf(1))

	// Merge the per-worker accumulators into one Result.
	res := &Result{
		Forwarded: Series{BucketMs: bucketMs, Values: make([]float64, buckets)},
		Reflected: Series{BucketMs: bucketMs, Values: make([]float64, buckets)},
		Dropped:   Series{BucketMs: bucketMs, Values: make([]float64, buckets)},
		ToCPU:     Series{BucketMs: bucketMs, Values: make([]float64, buckets)},
		PerPort:   make(map[int]*Series),
		Verdicts:  make(map[rmt.Verdict]int),
	}
	for _, a := range accs {
		for b := 0; b < buckets; b++ {
			res.Forwarded.Values[b] += a.forwarded[b]
			res.Reflected.Values[b] += a.reflected[b]
			res.Dropped.Values[b] += a.dropped[b]
			res.ToCPU.Values[b] += a.tocpu[b]
		}
		for port, vals := range a.perPort {
			ps, ok := res.PerPort[port]
			if !ok {
				ps = &Series{BucketMs: bucketMs, Values: make([]float64, buckets)}
				res.PerPort[port] = ps
			}
			for b, v := range vals {
				ps.Values[b] += v
			}
		}
		for v, n := range a.verdicts {
			if n > 0 {
				res.Verdicts[rmt.Verdict(v)] += n
			}
		}
		res.Packets += a.packets
	}
	for _, s := range []*Series{&res.Forwarded, &res.Reflected, &res.Dropped, &res.ToCPU} {
		toMbps(s)
	}
	for _, s := range res.PerPort {
		toMbps(s)
	}
	return res
}
