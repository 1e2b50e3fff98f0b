package main

import (
	"fmt"
	"time"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/core"
	"p4runpro/internal/fabric"
	"p4runpro/internal/traffic"
)

// fabric_sparse: a 2-leaf/1-spine fabric with only the path programs
// resident (leaf CMS + uplink, spine /16 route, far-leaf downlink). The
// trace is replayed leaf0 -> spine0 -> leaf1 through Fabric.Replay, then
// packet by packet through Fabric.Inject. Tables are near-empty, so fixed
// per-packet cost and fabric hop cost dominate and match cost is negligible:
// a lookup optimisation must show no change here.

const (
	cmsWords    = 1024
	replayShare = 0.6 // of the budget; the rest is single-packet injection
	replayChunk = 256 // packets per Fabric.Replay call: one edge burst, well under a millisecond
)

// fabricDst is the /16 the spine routes to the far leaf.
var fabricDst = [2]byte{10, 101}

type sparseFabric struct {
	f      *fabric.Fabric
	cts    map[string]*controlplane.Controller
	tr     *traffic.Trace
	chunks []*traffic.Trace // tr cut into replayChunk-packet traces

	sent   uint64 // packets sent through the fabric
	bad    uint64 // of those, not delivered or delivered over a path that is not 2 hops
	direct uint64 // packets the layer probes fed straight to leaf0
}

func newSparseFabric(r *run) (*sparseFabric, error) {
	s := &sparseFabric{f: fabric.New(fabric.Options{}), cts: make(map[string]*controlplane.Controller)}
	for _, name := range []string{"leaf0", "leaf1", "spine0"} {
		ct, err := controlplane.New(r.sc.cfg, core.DefaultOptions())
		if err != nil {
			return nil, err
		}
		if _, err := s.f.Add(name, ct.SW); err != nil {
			return nil, err
		}
		s.cts[name] = ct
	}
	if err := s.f.WireLeafSpine(2, 1, r.sc.cfg, 0); err != nil {
		return nil, err
	}
	up := s.f.LeafUplinkPort(0)
	leaf := fmt.Sprintf(`@ up_cms %d
program up(<meta.ingress_port, 1, 0xffffffff>) { LOADI(sar, 1); HASH_5_TUPLE_MEM(up_cms); MEMADD(up_cms); FORWARD(%d); }
program down(<meta.ingress_port, %d, 0xffffffff>) { FORWARD(2); }
`, cmsWords, up, up)
	spine := fmt.Sprintf("program to1(<hdr.ipv4.dst, %d.%d.0.0, 0xffff0000>) { FORWARD(%d); }",
		fabricDst[0], fabricDst[1], s.f.SpineDownlinkPort(1))
	for name, src := range map[string]string{"leaf0": leaf, "leaf1": leaf, "spine0": spine} {
		if _, err := s.cts[name].Deploy(src); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	s.tr = makeTrace(r.seed, r.sc.traceMs, fabricDst)
	for i := range s.tr.Events {
		s.tr.Events[i].Node = "leaf0"
	}
	for lo := 0; lo+replayChunk <= len(s.tr.Events); lo += replayChunk {
		s.chunks = append(s.chunks, &traffic.Trace{Events: s.tr.Events[lo : lo+replayChunk]})
	}
	if len(s.chunks) == 0 {
		return nil, fmt.Errorf("the trace has %d packets, fewer than one replay of %d", len(s.tr.Events), replayChunk)
	}
	return s, nil
}

type sparseStats struct {
	replayUS, injectNS, groupUS []float64 // per Replay of one chunk; per Fabric.Inject; per burstSize injections
	replayed, injected          uint64
	undelivered, lost           int64 // packets not delivered; packets delivered over the wrong hop count
}

// replayFor replays the trace chunk after chunk for about d. Every packet
// must be delivered, over exactly two links.
func (s *sparseFabric) replayFor(d time.Duration, st *sparseStats, rec *recorder) error {
	for phase, i := time.Now(), 0; time.Since(phase) < d; i++ {
		chunk := s.chunks[i%len(s.chunks)]
		sp := rec.begin("fabric.Replay", -1, i)
		start := time.Now()
		res, err := s.f.Replay(chunk, nil, fabric.ReplayOptions{})
		took := time.Since(start)
		rec.end(sp)
		if err != nil {
			return err
		}
		st.replayUS = append(st.replayUS, us(took))
		s.sent += replayChunk
		if len(res.Hops) > 2 {
			s.bad += replayChunk - res.Hops[2]
		} else {
			s.bad += replayChunk
		}
	}
	return nil
}

// injectFor sends the trace packet by packet through Fabric.Inject for about
// d, timing each call and each group of burstSize calls.
func (s *sparseFabric) injectFor(d time.Duration, st *sparseStats) {
	evs := s.tr.Events
	for phase, i := time.Now(), 0; time.Since(phase) < d; {
		group := time.Now()
		for j := 0; j < burstSize; j, i = j+1, i+1 {
			ev := evs[i%len(evs)]
			start := time.Now()
			dl, err := s.f.Inject("leaf0", ev.Pkt, ev.Port)
			st.injectNS = append(st.injectNS, float64(time.Since(start).Nanoseconds()))
			if err != nil || dl.Delivered != 1 || dl.Hops != 2 {
				s.bad++
			}
		}
		st.groupUS = append(st.groupUS, us(time.Since(group)))
		s.sent += burstSize
	}
}

// verify counts the packet checks and reads the leaf CMS back: a one-row
// count-min sketch adds 1 per packet, so its words sum to the packets that
// entered the leaf.
func (s *sparseFabric) verify(r *run) {
	r.ops(int64(s.sent), int64(s.bad), "packets undelivered or delivered over a path that is not 2 hops")
	words, err := s.cts["leaf0"].ReadMemoryRange("up", "up_cms", 0, cmsWords)
	var sum uint64
	for _, w := range words {
		sum += uint64(w)
	}
	r.op(err == nil && sum == s.sent+s.direct, "leaf0 CMS sums to %d, %d packets entered (%v)", sum, s.sent+s.direct, err)
}

func fabricSparseE2E(r *run) (map[string]float64, error) {
	// Capacity up front: growing a slice of millions of samples would put the
	// benchmark's own garbage into peak_rss_mb. Untouched capacity costs nothing.
	st := sparseStats{injectNS: make([]float64, 0, 1<<22)}
	share := 1 / float64(r.sc.setups)
	pkts := 0
	for i := 0; i < r.sc.setups; i++ {
		var s *sparseFabric
		if err := r.setup(func() (err error) { s, err = newSparseFabric(r); return err }); err != nil {
			return nil, err
		}
		if err := s.replayFor(r.budget(share*replayShare), &st, nil); err != nil {
			return nil, err
		}
		s.injectFor(r.budget(share*(1-replayShare)), &st)
		s.verify(r)
		pkts = len(s.tr.Events)
	}
	r.note("fabric_sparse: %d instances, trace of %d packets, %d replays of %d, %d single injections", r.sc.setups, pkts, len(st.replayUS), replayChunk, len(st.injectNS))
	r.latencyLine("pkt_ns (Fabric.Inject)", "ns", st.injectNS)
	r.latencyLine("replay_us (256 packets)", "us", st.replayUS)
	return map[string]float64{
		"setup_s":              median(r.setupS),
		"primary_rate_per_s":   unitRate(replayChunk, st.replayUS),
		"secondary_rate_per_s": unitRate(burstSize, st.groupUS),
		"primary_p50_us":       median(st.injectNS) / 1e3,
		"secondary_p50_us":     median(st.replayUS),
	}, nil
}

// fabricSparseTraced replays untraced and traced, then feeds the same trace
// straight to each node on the path so the fabric's own share can be told
// from the switches'.
func fabricSparseTraced(r *run, rec *recorder) (map[string]float64, error) {
	L := make(map[string]float64)
	s, err := newSparseFabric(r)
	if err != nil {
		return nil, err
	}
	_, pause0 := memCounters()
	var plain, traced sparseStats
	if err := s.replayFor(r.budget(0.25), &plain, nil); err != nil {
		return nil, err
	}
	if err := s.replayFor(r.budget(0.25), &traced, rec); err != nil {
		return nil, err
	}
	s.injectFor(r.budget(0.1), &traced)
	pps := func(st *sparseStats) float64 { return unitRate(replayChunk, st.replayUS) }
	L["bench.trace_overhead_share"] = 1 - pps(&traced)/pps(&plain)
	L["fabric.replay_ns_per_pkt"] = 1e9 / pps(&traced)
	L["fabric.inject_ns"] = median(traced.injectNS)
	L["bench.tail_p99_us"] = percentile(sorted(traced.injectNS), 0.99) / 1e3

	// The path, node by node: where each hop's packets enter.
	type entry struct {
		node string
		port int
	}
	hops := []entry{{"leaf0", s.tr.Events[0].Port}}
	for _, out := range []entry{{"leaf0", s.f.LeafUplinkPort(0)}, {"spine0", s.f.SpineDownlinkPort(1)}} {
		link, ok := s.f.Link(out.node, out.port)
		if !ok {
			return nil, fmt.Errorf("no link at %s port %d", out.node, out.port)
		}
		hops = append(hops, entry{link.To.Node, link.To.Port})
	}
	var injectSum, batchSum float64
	for i, h := range hops {
		node := make(map[string]float64)
		sent := probePackets(r, s.cts[h.node], s.tr, h.port, node)
		if h.node == "leaf0" {
			s.direct += uint64(sent)
		}
		injectSum += node["rmt.inject_ns"]
		batchSum += node["rmt.injectbatch_ns"]
		if i == 0 { // the entry leaf does the stateful work; report it as the switch figure
			for k, v := range node {
				L[k] = v
			}
		}
	}
	L["fabric.hop_overhead_ns"] = (L["fabric.inject_ns"] - injectSum) / 2
	r.note("per-node sum: Switch.Inject %.0f ns, InjectBatch %.0f ns/pkt, against Fabric.Inject %.0f ns and Replay %.0f ns/pkt",
		injectSum, batchSum, L["fabric.inject_ns"], L["fabric.replay_ns_per_pkt"])
	s.direct += uint64(probeReplay(r, s.cts["leaf0"].SW, s.tr, L))
	s.verify(r)
	_, pause1 := memCounters()
	L["go.gc_pause_ms"] = pause1 - pause0
	return L, nil
}
