package main

import (
	"math/rand"
	"os"
	"runtime"
	"time"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/journal"
	"p4runpro/internal/pkt"
	"p4runpro/internal/rmt"
	"p4runpro/internal/traffic"
	"p4runpro/internal/wire"
)

// Standalone probes of single layers, timed from outside through their
// public functions. Each fills its metrics into L; a workload's traced run
// calls the probes of the layers that work for it and leaves the rest at 0.

// timeEach calls fn n times and returns each call's nanoseconds.
func timeEach(n int, fn func(i int)) []float64 {
	out := make([]float64, n)
	for i := range out {
		start := time.Now()
		fn(i)
		out[i] = float64(time.Since(start).Nanoseconds())
	}
	return out
}

// probeWire measures the loopback round trip of the smallest request and a
// depth-32 pipeline of it on a live connection.
func probeWire(r *run, c *wire.Client, L map[string]float64) {
	n := r.sc.probeIters
	rtt := timeEach(n, func(int) {
		_, err := c.Status()
		r.op(err == nil, "status: %v", err)
	})
	L["wire.rtt_us"] = median(rtt) / 1e3

	calls := make([]*wire.PendingCall, pipeDepth)
	flushes := n/pipeDepth + 1
	start := time.Now()
	for i := 0; i < flushes; i++ {
		p := c.Pipeline()
		for j := range calls {
			calls[j] = p.Call(wire.MethodStatus, nil, nil)
		}
		err := p.Flush()
		for _, pc := range calls {
			r.op(err == nil && pc.Err() == nil, "pipelined status: %v %v", err, pc.Err())
		}
	}
	L["wire.pipeline_ops_per_s"] = float64(flushes*pipeDepth) / time.Since(start).Seconds()
}

// probeFrames measures binary framing of a 64 KiB payload and the packing of
// one mem.writebatch.
func probeFrames(r *run, L map[string]float64) {
	const kb = 64
	payload := make([]byte, kb<<10)
	rand.New(rand.NewSource(r.seed)).Read(payload)
	var frame []byte
	enc := timeEach(r.sc.probeIters, func(int) { frame = wire.AppendFrame(frame[:0], payload) })
	dec := timeEach(r.sc.probeIters, func(int) {
		got, _, err := wire.DecodeFrame(frame, len(frame))
		r.op(err == nil && len(got) == len(payload), "frame decode: %d bytes, %v", len(got), err)
	})
	L["wire.frame_encode_ns_per_kb"] = median(enc) / kb
	L["wire.frame_decode_ns_per_kb"] = median(dec) / kb
	writes := writeBatch(rand.New(rand.NewSource(r.seed)), r.sc.memWords, writePairs)
	L["wire.writepairs_encode_ns"] = median(timeEach(r.sc.probeIters, func(int) { wire.EncodeWritePairs(writes) }))
}

// probeJournalBatch measures one group commit of 64 revoke-sized records
// (fsync on every append).
func probeJournalBatch(r *run, L map[string]float64) error {
	jrn, cleanup, err := openJournal(r)
	if err != nil {
		return err
	}
	defer cleanup()
	recs := make([]journal.Record, batchSize)
	for i := range recs {
		recs[i] = journal.Record{Op: journal.OpRevoke, Name: "tiny0"}
	}
	batch := timeEach(r.sc.probeIters/10+1, func(int) {
		r.op(jrn.AppendBatch(recs) == nil, "journal append batch")
	})
	L["journal.append_batch_us"] = median(batch) / 1e3
	return nil
}

// openJournal opens a journal of its own (fsync on every append) in the
// run's scratch directory; cleanup closes and removes it.
func openJournal(r *run) (*journal.Journal, func(), error) {
	dir, err := os.MkdirTemp(r.tmp, "probe-")
	if err != nil {
		return nil, nil, err
	}
	jrn, _, err := journal.Open(dir, journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return jrn, func() { jrn.Close(); os.RemoveAll(dir) }, nil
}

// probeTable measures Insert+Delete of one entry on a standalone table of
// the switch's capacity, empty and nearly full. Every entry shares the first
// exact key, as the entries of an init table do.
func probeTable(r *run, L map[string]float64) {
	capacity := r.sc.cfg.TableCapacity
	tbl := rmt.NewTable("probe", rmt.Ingress, 0, capacity, 2, nil)
	ok := tbl.RegisterAction("nop", 0, func(*rmt.PHV, []uint32) {}) == nil
	keys := func(i int) []rmt.TernaryKey { return []rmt.TernaryKey{rmt.Exact(1), rmt.Exact(uint32(i))} }
	pair := func(i int) {
		id, err := tbl.Insert(keys(capacity+i), 0, "nop", nil, "probe")
		ok = ok && err == nil && tbl.Delete(id) == nil
	}
	L["rmt.insert_us_empty"] = median(timeEach(r.sc.probeIters, pair)) / 1e3
	for i := 0; i < capacity-capacity/40; i++ { // 2,000 of 2,048
		_, err := tbl.Insert(keys(i), 0, "nop", nil, "fill")
		ok = ok && err == nil
	}
	L["rmt.insert_us_full"] = median(timeEach(r.sc.probeIters, pair)) / 1e3
	r.op(ok, "standalone table insert/delete")
}

// initKey rebuilds the init table's lookup key for a packet from the
// packet's public fields (dataplane keeps the layout private): bitmap,
// eth.dst low word, ipv4 src/dst/proto, L4 ports, ingress port.
func initKey(p *pkt.Packet, port int) []uint32 {
	k := make([]uint32, 8)
	k[0] = uint32(p.Bitmap)
	if p.Eth != nil {
		k[1] = p.Eth.Dst.Lo32()
	}
	if p.IP4 != nil {
		k[2], k[3], k[4] = p.IP4.Src, p.IP4.Dst, uint32(p.IP4.Proto)
	}
	switch {
	case p.TCP != nil:
		k[5], k[6] = uint32(p.TCP.SrcPort), uint32(p.TCP.DstPort)
	case p.UDP != nil:
		k[5], k[6] = uint32(p.UDP.SrcPort), uint32(p.UDP.DstPort)
	}
	k[7] = uint32(port)
	return k
}

// probePackets measures the per-packet layers on one switch at whatever
// fill the workload left it: header parse and marshal, single and batched
// injection, the init-table lookup, and the exact per-packet work counts.
// It returns how many packets it injected (the caller's counters move).
func probePackets(r *run, ct *controlplane.Controller, tr *traffic.Trace, port int, L map[string]float64) int {
	sw, evs := ct.SW, tr.Events
	n := len(evs)
	frames := make([][]byte, n)
	L["pkt.marshal_ns"] = median(timeEach(n, func(i int) { frames[i] = evs[i].Pkt.Marshal() }))
	L["pkt.parse_ns"] = median(timeEach(n, func(i int) {
		_, err := pkt.Parse(frames[i])
		r.op(err == nil, "parse generated frame %d: %v", i, err)
	}))

	before := sw.Metrics()
	mallocs0, _ := memCounters()
	each := timeEach(n, func(i int) { sw.Inject(evs[i].Pkt, port) })
	mallocs1, _ := memCounters()
	after := sw.Metrics()
	single := sorted(each)
	L["rmt.inject_ns"] = percentile(single, 0.5)
	L["rmt.inject_p99_ns"] = percentile(single, 0.99)
	pkts := float64(after.Packets - before.Packets)
	var lookups uint64
	for i := range after.StageLookups {
		lookups += after.StageLookups[i] - before.StageLookups[i]
	}
	L["rmt.passes_per_pkt"] = float64(after.Passes-before.Passes) / pkts
	L["rmt.lookups_per_pkt"] = float64(lookups) / pkts
	L["rmt.salu_ops_per_pkt"] = float64(after.SALUOps-before.SALUOps) / pkts
	// timeEach's own slice is the only allocation that is not the switch's.
	L["rmt.allocs_per_pkt"] = float64(mallocs1-mallocs0-1) / pkts

	items := make([]rmt.BatchItem, burstSize)
	bursts := n / burstSize
	L["rmt.injectbatch_ns"] = median(timeEach(bursts, func(b int) {
		for j := range items {
			items[j] = rmt.BatchItem{Pkt: evs[b*burstSize+j].Pkt, Port: port}
		}
		sw.InjectBatch(items)
	})) / burstSize

	hit := true
	tables, keys := make([]*rmt.Table, n), make([][]uint32, n)
	for i, ev := range evs {
		tbl, err := ct.Plane.InitTable(ev.Pkt.Bitmap)
		hit = hit && err == nil
		tables[i], keys[i] = tbl, initKey(ev.Pkt, port)
	}
	L["rmt.lookup_ns"] = median(timeEach(n, func(i int) { hit = hit && tables[i].Lookup(keys[i]) != nil }))
	r.op(hit, "init-table lookup missed a packet its program owns")
	return n + bursts*burstSize
}

// probeReplay measures trace generation and the serial and parallel replay
// drivers on one switch; it returns the packets it injected.
func probeReplay(r *run, sw *rmt.Switch, tr *traffic.Trace, L map[string]float64) int {
	start := time.Now()
	makeTrace(r.seed, r.sc.traceMs, [2]byte{})
	L["traffic.generate_s"] = time.Since(start).Seconds()

	workers := runtime.GOMAXPROCS(0)
	const passes = 5
	pps := func(replay func() *traffic.Result) float64 {
		var rates []float64
		for i := 0; i < passes; i++ {
			start := time.Now()
			res := replay()
			rates = append(rates, float64(res.Packets)/time.Since(start).Seconds())
		}
		return median(rates)
	}
	w1 := pps(func() *traffic.Result { return traffic.Replay(tr, sw, nil, 50) })
	wN := pps(func() *traffic.Result { return traffic.ReplayParallel(tr, sw, nil, 50, workers) })
	L["traffic.replay_pps_w1"] = w1
	L["traffic.replay_pps_wN"] = wN
	L["traffic.parallel_speedup"] = wN / w1
	return 2 * passes * len(tr.Events)
}
