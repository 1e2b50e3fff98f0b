package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/core"
	"p4runpro/internal/journal"
	"p4runpro/internal/wire"
)

// bulk_wire: one client, a journaled controller kept below 66 resident
// programs. Each cycle is a deploy.batch of 64 tiny forwarders (non-atomic),
// their 64 revokes in one Pipeline flush, a mem.writebatch of 512 pairs, a
// mem.readstream of the whole 16,384-word block, and 32 lockstep status
// calls. Tables stay tiny, so framing, JSON, pipelining and journal group
// commit are most of the cost here and little of fill_drain's.

const bulkProgram, bulkMem = "bulkmem", "bulk"

// bulkSource is the one long-lived program: it owns the memory block.
func bulkSource(words int) string {
	return fmt.Sprintf("@ %s %d\nprogram %s(<hdr.ipv4.src, 10.200.0.0, 0xffff0000>) { LOADI(sar, 1); HASH_5_TUPLE_MEM(%s); MEMADD(%s); }",
		bulkMem, words, bulkProgram, bulkMem, bulkMem)
}

type bulkWire struct {
	w      *wireCtl
	tiny   []program
	srcs   []string
	rng    *rand.Rand
	shadow []uint32 // what the memory block must read back as
}

func newBulkWire(r *run) (*bulkWire, error) {
	b := &bulkWire{
		tiny:   tinyForwarders(r.seed, batchSize),
		rng:    rand.New(rand.NewSource(r.seed*1031 + 4)),
		shadow: make([]uint32, r.sc.memWords),
	}
	for _, p := range b.tiny {
		b.srcs = append(b.srcs, p.src)
	}
	var err error
	if b.w, err = openWireCtl(r); err != nil {
		return nil, err
	}
	if _, err := b.w.c.Deploy(bulkSource(r.sc.memWords)); err != nil {
		b.w.close()
		return nil, err
	}
	return b, nil
}

type bulkStats struct {
	cycles                                             int
	deployUS, revokeFlushUS, writeUS, readUS, statusUS []float64 // per call
	// rpcUS is, per cycle, the mean of its lockstep status calls. A loopback
	// round trip has two modes (the peer goroutine still spinning, ~15 us, or
	// parked, ~60 us) of about equal weight, so the median of single calls
	// jumps between them; the mean of 32 moves smoothly with the mix.
	rpcUS []float64
}

// cyclesFor runs whole cycles for about d.
func (b *bulkWire) cyclesFor(r *run, d time.Duration, st *bulkStats, rec *recorder) {
	c := b.w.c
	calls := make([]*wire.PendingCall, len(b.tiny))
	timed := func(name string, fn func()) time.Duration {
		sp := rec.begin(name, -1, st.cycles)
		start := time.Now()
		fn()
		took := time.Since(start)
		rec.end(sp)
		return took
	}
	for phase := time.Now(); time.Since(phase) < d; st.cycles++ {
		took := timed("wire.Client.DeployBatch", func() {
			res, err := c.DeployBatch(b.srcs, false)
			r.op(err == nil && res.Deployed == len(b.srcs), "deploy.batch linked %d of %d: %v", res.Deployed, len(b.srcs), err)
		})
		st.deployUS = append(st.deployUS, us(took))

		took = timed("wire.Pipeline.Flush", func() {
			p := c.Pipeline()
			for i, t := range b.tiny {
				calls[i] = p.Call(wire.MethodRevoke, wire.RevokeParams{Name: t.name}, nil)
			}
			err := p.Flush()
			for _, pc := range calls {
				r.op(err == nil && pc.Err() == nil, "pipelined revoke: %v %v", err, pc.Err())
			}
		})
		st.revokeFlushUS = append(st.revokeFlushUS, us(took))

		writes := writeBatch(b.rng, len(b.shadow), writePairs)
		took = timed("wire.Client.WriteMemoryBatch", func() {
			n, err := c.WriteMemoryBatch(bulkProgram, bulkMem, writes)
			r.op(err == nil && n == len(writes), "mem.writebatch wrote %d of %d: %v", n, len(writes), err)
		})
		st.writeUS = append(st.writeUS, us(took))
		for _, w := range writes {
			b.shadow[w.Addr] = w.Value
		}

		var got []uint32
		var err error
		took = timed("wire.Client.ReadMemoryBulk", func() {
			got, err = c.ReadMemoryBulk(bulkProgram, bulkMem, 0, uint32(len(b.shadow)))
		})
		st.readUS = append(st.readUS, us(took))
		r.op(err == nil && len(got) == len(b.shadow), "mem.readstream returned %d words: %v", len(got), err)
		var wrong int64
		for i := range got {
			if got[i] != b.shadow[i] {
				wrong++
			}
		}
		r.ops(int64(len(got)), wrong, "memory words read back unlike what was written")

		group := time.Now()
		for i := 0; i < statusCalls; i++ {
			took := timed("wire.Client.Status", func() {
				s, err := c.Status()
				r.op(err == nil && resident(s) == 1, "status %q: %v", s, err)
			})
			st.statusUS = append(st.statusUS, us(took))
		}
		st.rpcUS = append(st.rpcUS, us(time.Since(group))/statusCalls)
	}
}

// deploysPerS is programs per second through the median deploy.batch call.
func (st *bulkStats) deploysPerS() float64 { return unitRate(batchSize, st.deployUS) }

func bulkWireE2E(r *run) (map[string]float64, error) {
	var st bulkStats
	share := 1 / float64(r.sc.setups)
	for i := 0; i < r.sc.setups; i++ {
		var b *bulkWire
		if err := r.setup(func() (err error) { b, err = newBulkWire(r); return err }); err != nil {
			return nil, err
		}
		b.cyclesFor(r, r.budget(share), &st, nil)
		b.w.close()
	}
	r.note("bulk_wire: %d instances, %d cycles; mem_read_words_per_s %.0f", r.sc.setups, st.cycles, unitRate(float64(r.sc.memWords), st.readUS))
	r.latencyLine("rpc_us (status)", "us", st.statusUS)
	r.latencyLine("deploy_batch_us", "us", st.deployUS)
	r.latencyLine("revoke_flush_us", "us", st.revokeFlushUS)
	r.latencyLine("writebatch_us", "us", st.writeUS)
	r.latencyLine("readstream_us", "us", st.readUS)
	return map[string]float64{
		"setup_s":              median(r.setupS),
		"primary_rate_per_s":   st.deploysPerS(),
		"secondary_rate_per_s": unitRate(writePairs, st.writeUS),
		"primary_p50_us":       median(st.rpcUS),
		"secondary_p50_us":     median(st.readUS),
	}, nil
}

// bulkWireTraced runs cycles untraced and traced, then takes the server side
// apart: the same batches through the controller with no wire and no
// journal, the journal alone, and the framing alone.
func bulkWireTraced(r *run, rec *recorder) (map[string]float64, error) {
	L := make(map[string]float64)
	b, err := newBulkWire(r)
	if err != nil {
		return nil, err
	}
	defer b.w.close()
	_, pause0 := memCounters()
	var plain, traced bulkStats
	b.cyclesFor(r, r.budget(0.3), &plain, nil)
	b.cyclesFor(r, r.budget(0.3), &traced, rec)
	L["bench.trace_overhead_share"] = 1 - traced.deploysPerS()/plain.deploysPerS()
	L["bench.mem_read_words_per_s"] = unitRate(float64(len(b.shadow)), plain.readUS)
	L["bench.tail_p99_us"] = percentile(sorted(plain.statusUS), 0.99)
	probeWire(r, b.w.c, L)
	probeFrames(r, L)

	// The request line the server parses for one deploy.batch.
	params, err := json.Marshal(wire.DeployBatchParams{Sources: b.srcs})
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(wire.Request{ID: 1, Method: wire.MethodDeployBatch, Params: params})
	if err != nil {
		return nil, err
	}
	parse := timeEach(r.sc.probeIters, func(int) {
		req, err := wire.ParseRequest(line)
		var dp wire.DeployBatchParams
		r.op(err == nil && json.Unmarshal(req.Params, &dp) == nil && len(dp.Sources) == batchSize, "parse deploy.batch request: %v", err)
	})
	L["wire.request_parse_us"] = median(parse) / 1e3

	// The journal alone: one revoke record, one 64-record group, one batch
	// record per deploy.batch.
	jrn, cleanup, err := openJournal(r)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	single := timeEach(r.sc.probeIters, func(int) {
		r.op(jrn.Append(journal.Record{Op: journal.OpRevoke, Name: b.tiny[0].name}) == nil, "journal append")
	})
	L["journal.append_us"] = median(single) / 1e3
	before := jrn.SegmentBytes()
	r.op(jrn.Append(journal.Record{Op: journal.OpDeployBatch, Sources: b.srcs}) == nil, "journal append")
	L["journal.bytes_per_deploy"] = float64(jrn.SegmentBytes()-before) / batchSize
	if err := probeJournalBatch(r, L); err != nil {
		return nil, err
	}

	// The controller alone: no wire, no journal.
	ct, err := controlplane.New(r.sc.cfg, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if _, err := ct.Deploy(bulkSource(r.sc.memWords)); err != nil {
		return nil, err
	}
	writes := make([]controlplane.MemWrite, writePairs)
	for i, w := range writeBatch(b.rng, len(b.shadow), writePairs) {
		writes[i] = controlplane.MemWrite{Addr: w.Addr, Value: w.Value}
	}
	iters := r.sc.probeIters/20 + 1
	var deployAll, revoke []float64
	mallocs0, _ := memCounters()
	for i := 0; i < iters; i++ {
		start := time.Now()
		outs, err := ct.DeployAll(b.srcs, false)
		deployAll = append(deployAll, us(time.Since(start)))
		r.op(err == nil && len(outs) == batchSize, "DeployAll: %v", err)
		for _, t := range b.tiny {
			start := time.Now()
			_, err := ct.Revoke(t.name)
			revoke = append(revoke, us(time.Since(start)))
			r.op(err == nil, "revoke %s: %v", t.name, err)
		}
	}
	mallocs1, _ := memCounters()
	L["go.allocs_per_deploy"] = float64(mallocs1-mallocs0) / float64(iters*batchSize) // a deploy and its revoke
	L["controlplane.deployall_us"] = median(deployAll)
	L["controlplane.revoke_us"] = median(revoke)
	L["controlplane.writebatch_us"] = median(timeEach(r.sc.probeIters, func(int) {
		n, err := ct.WriteMemoryBatch(bulkProgram, bulkMem, writes)
		r.op(err == nil && n == len(writes), "WriteMemoryBatch: %d %v", n, err)
	})) / 1e3
	L["controlplane.readrange_us"] = median(timeEach(r.sc.probeIters, func(int) {
		vals, err := ct.ReadMemoryRange(bulkProgram, bulkMem, 0, uint32(len(b.shadow)))
		r.op(err == nil && len(vals) == len(b.shadow), "ReadMemoryRange: %d %v", len(vals), err)
	})) / 1e3
	_, pause1 := memCounters()
	L["go.gc_pause_ms"] = pause1 - pause0
	return L, nil
}
