package p4runpro

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`), plus micro-benchmarks of
// the hot paths (packet processing, allocation, linking). The experiment
// benchmarks wrap internal/experiments at reduced scale so a full -bench
// pass stays tractable; cmd/experiments regenerates the full-scale tables.

import (
	"fmt"
	"math/rand"
	"testing"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/core"
	"p4runpro/internal/experiments"
	"p4runpro/internal/journal"
	"p4runpro/internal/obs/trace"
	"p4runpro/internal/pkt"
	"p4runpro/internal/programs"
	"p4runpro/internal/rmt"
	"p4runpro/internal/traffic"
	"p4runpro/internal/wire"
)

func mustOpen(b *testing.B) *controlplane.Controller {
	b.Helper()
	ct, err := Open(DefaultConfig(), DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return ct
}

// BenchmarkTable1UpdateDelay measures deploy+revoke round trips for every
// Table 1 program (the modeled update delay is reported by cmd/experiments;
// here we measure the real compiler work).
func BenchmarkTable1UpdateDelay(b *testing.B) {
	for _, spec := range programs.All() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			ct := mustOpen(b)
			src := spec.DefaultSource()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ct.Deploy(src); err != nil {
					b.Fatal(err)
				}
				if _, err := ct.Revoke(spec.Name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure7aAllocationDelay measures steady-state allocation cost
// per workload program on a partially loaded switch.
func BenchmarkFigure7aAllocationDelay(b *testing.B) {
	for _, w := range []string{"cache", "lb", "hh"} {
		w := w
		b.Run(w, func(b *testing.B) {
			ct := mustOpen(b)
			spec, _ := programs.Get(w)
			params := programs.DefaultParams()
			// Preload 50 instances so feasibility predicates do real work.
			for i := 0; i < 50; i++ {
				name, src := programs.Instantiate(spec, i, params)
				if _, err := ct.Deploy(src); err != nil {
					b.Fatalf("preload %s: %v", name, err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name, src := programs.Instantiate(spec, 1000+i, params)
				if _, err := ct.Deploy(src); err != nil {
					b.Fatal(err)
				}
				if _, err := ct.Revoke(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure7bGranularity verifies allocation cost is flat across
// requested memory sizes (128 B vs 1,024 B).
func BenchmarkFigure7bGranularity(b *testing.B) {
	for _, bytes := range []int{128, 256, 512, 1024} {
		bytes := bytes
		b.Run(fmt.Sprintf("%dB", bytes), func(b *testing.B) {
			ct := mustOpen(b)
			spec, _ := programs.Get("cache")
			params := programs.Params{MemWords: uint32(bytes / 4), Elastic: 2}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name, src := programs.Instantiate(spec, i, params)
				if _, err := ct.Deploy(src); err != nil {
					b.Fatal(err)
				}
				if _, err := ct.Revoke(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure8Utilization runs a full deploy-until-failure sweep per
// iteration (reduced epoch cap).
func BenchmarkFigure8Utilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure8(600)
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFigure9Capacity measures a single capacity run (lb baseline
// request), the unit of Figure 9.
func BenchmarkFigure9Capacity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ct := mustOpen(b)
		spec, _ := programs.Get("lb")
		params := programs.DefaultParams()
		n := 0
		for ; n < 600; n++ {
			_, src := programs.Instantiate(spec, n, params)
			if _, err := ct.Deploy(src); err != nil {
				break
			}
		}
		if n < 100 {
			b.Fatalf("capacity only %d", n)
		}
	}
}

// BenchmarkFigure10StaticResources regenerates the static image report.
func BenchmarkFigure10StaticResources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Figure10(); len(r) != 3 {
			b.Fatal("bad report")
		}
	}
}

// BenchmarkTable2LatencyPower regenerates the latency/power table.
func BenchmarkTable2LatencyPower(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Table2(); len(r) != 3 {
			b.Fatal("bad report")
		}
	}
}

// BenchmarkFigure11Recirculation exercises actual recirculating forwarding:
// a calculator SUB op whose deep branch needs a second pass.
func BenchmarkFigure11Recirculation(b *testing.B) {
	ct := mustOpen(b)
	spec, _ := programs.Get("calc")
	if _, err := ct.Deploy(spec.DefaultSource()); err != nil {
		b.Fatal(err)
	}
	flow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: pkt.PortCalculator, Proto: pkt.ProtoUDP}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkt.NewCalc(flow, pkt.CalcSub, uint32(i), 3)
		res := ct.SW.Inject(p, 1)
		if res.Verdict != rmt.VerdictReflected {
			b.Fatalf("verdict %v", res.Verdict)
		}
	}
}

// BenchmarkFigure12Objectives measures one all-mixed deployment under each
// allocation objective on a half-loaded switch — the per-epoch cost whose
// distribution Figure 12 plots.
func BenchmarkFigure12Objectives(b *testing.B) {
	for _, obj := range []core.ObjectiveKind{core.ObjF1, core.ObjF2, core.ObjF3, core.ObjHierarchical} {
		obj := obj
		b.Run(obj.String(), func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.Objective = obj
			ct, err := Open(DefaultConfig(), opt)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			all := programs.All()
			params := programs.DefaultParams()
			for i := 0; i < 200; i++ {
				_, src := programs.Instantiate(all[rng.Intn(len(all))], i, params)
				if _, err := ct.Deploy(src); err != nil {
					b.Fatalf("preload %d: %v", i, err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spec := all[rng.Intn(len(all))]
				name, src := programs.Instantiate(spec, 10000+i, params)
				if _, err := ct.Deploy(src); err != nil {
					b.Fatal(err)
				}
				if _, err := ct.Revoke(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure13aChurn measures packet forwarding while programs are
// deployed and revoked concurrently with traffic — the per-packet cost of
// the runtime-update path.
func BenchmarkFigure13aChurn(b *testing.B) {
	ct := mustOpen(b)
	if _, err := ct.Deploy("program fwd(<hdr.ipv4.dst, 0, 0>) { FORWARD(2); }"); err != nil {
		b.Fatal(err)
	}
	spec, _ := programs.Get("cms")
	flow := pkt.FiveTuple{SrcIP: pkt.IP(172, 16, 0, 1), DstIP: pkt.IP(10, 200, 0, 1), SrcPort: 9, DstPort: 80, Proto: pkt.ProtoTCP}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%512 == 0 {
			name, src := programs.Instantiate(spec, i, programs.DefaultParams())
			if _, err := ct.Deploy(src); err != nil {
				b.Fatal(err)
			}
			defer ct.Revoke(name) //nolint:errcheck // cleanup best-effort
		}
		res := ct.SW.Inject(pkt.NewTCP(flow, pkt.TCPAck, 256), 1)
		if res.Verdict != rmt.VerdictForwarded {
			b.Fatalf("verdict %v", res.Verdict)
		}
	}
}

// BenchmarkFigure13bCachePath measures the full cache fast path (hit) on
// the simulated pipeline.
func BenchmarkFigure13bCachePath(b *testing.B) {
	ct := mustOpen(b)
	spec, _ := programs.Get("cache")
	if _, err := ct.Deploy(spec.DefaultSource()); err != nil {
		b.Fatal(err)
	}
	flow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: pkt.PortNetCache, Proto: pkt.ProtoUDP}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkt.NewNC(flow, pkt.NCRead, 0x8888, 0)
		if res := ct.SW.Inject(p, 1); res.Verdict != rmt.VerdictReflected {
			b.Fatalf("verdict %v", res.Verdict)
		}
	}
}

// BenchmarkFigure13cLBPath measures the load-balancer path.
func BenchmarkFigure13cLBPath(b *testing.B) {
	ct := mustOpen(b)
	spec, _ := programs.Get("lb")
	if _, err := ct.Deploy(spec.DefaultSource()); err != nil {
		b.Fatal(err)
	}
	for i := uint32(0); i < 256; i++ {
		if err := ct.WriteMemory("lb", "port_pool", i, i%2); err != nil {
			b.Fatal(err)
		}
	}
	flow := pkt.FiveTuple{SrcIP: pkt.IP(172, 16, 0, 1), DstIP: pkt.IP(10, 0, 0, 7), SrcPort: 4, DstPort: 80, Proto: pkt.ProtoTCP}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flow.SrcPort = uint16(i)
		if res := ct.SW.Inject(pkt.NewTCP(flow, pkt.TCPAck, 256), 1); res.Verdict != rmt.VerdictForwarded {
			b.Fatalf("verdict %v", res.Verdict)
		}
	}
}

// BenchmarkFigure13dHHPath measures the heavy-hitter sketch path.
func BenchmarkFigure13dHHPath(b *testing.B) {
	ct := mustOpen(b)
	spec, _ := programs.Get("hh")
	if _, err := ct.Deploy(spec.Source("hh", programs.Params{MemWords: 1024, Elastic: 2})); err != nil {
		b.Fatal(err)
	}
	flow := pkt.FiveTuple{SrcIP: pkt.IP(10, 0, 0, 1), DstIP: 2, SrcPort: 3, DstPort: 80, Proto: pkt.ProtoTCP}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flow.SrcPort = uint16(i % 4096)
		ct.SW.Inject(pkt.NewTCP(flow, pkt.TCPAck, 256), 1)
	}
	b.StopTimer()
	ct.SW.DrainCPU()
}

// BenchmarkForwardPath is the baseline per-packet cost of the simulated
// pipeline with a single forwarding program (docs/PERFORMANCE.md). The
// acceptance bound is <= 1000 ns/op at 0 allocs/op; TestPacketPathZeroAlloc
// asserts the allocation half.
func BenchmarkForwardPath(b *testing.B) {
	ct := mustOpen(b)
	if _, err := ct.Deploy("program fwd(<hdr.ipv4.dst, 0, 0>) { FORWARD(2); }"); err != nil {
		b.Fatal(err)
	}
	flow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: pkt.ProtoUDP}
	p := pkt.NewUDP(flow, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ct.SW.Inject(p, 1)
	}
}

// BenchmarkInjectBatch measures the batched injection API against per-packet
// Inject: one PHV checkout and one metrics flush per 64-packet burst instead
// of per packet.
func BenchmarkInjectBatch(b *testing.B) {
	ct := mustOpen(b)
	if _, err := ct.Deploy("program fwd(<hdr.ipv4.dst, 0, 0>) { FORWARD(2); }"); err != nil {
		b.Fatal(err)
	}
	flow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: pkt.ProtoUDP}
	p := pkt.NewUDP(flow, 512)
	batch := make([]rmt.BatchItem, 64)
	for i := range batch {
		batch[i] = rmt.BatchItem{Pkt: p, Port: 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(batch) {
		ct.SW.InjectBatch(batch)
	}
	b.StopTimer()
	if batch[0].Res.Verdict != rmt.VerdictForwarded {
		b.Fatalf("verdict %v", batch[0].Res.Verdict)
	}
}

// BenchmarkParseMarshal measures the packet codec round trip.
func BenchmarkParseMarshal(b *testing.B) {
	flow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: pkt.PortNetCache, Proto: pkt.ProtoUDP}
	frame := pkt.NewNC(flow, pkt.NCRead, 0x8888, 7).Marshal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := pkt.Parse(frame)
		if err != nil {
			b.Fatal(err)
		}
		_ = p.Marshal()
	}
}

// BenchmarkTraceReplay measures end-to-end replay throughput (packets/op
// reported via custom metric).
func BenchmarkTraceReplay(b *testing.B) {
	cfg := traffic.DefaultConfig()
	cfg.DurationMs = 200
	tr := traffic.Generate(cfg)
	ct := mustOpen(b)
	if _, err := ct.Deploy("program fwd(<hdr.ipv4.dst, 0, 0>) { FORWARD(2); }"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		traffic.Replay(tr, ct.SW, nil, 50)
	}
	b.ReportMetric(float64(len(tr.Events)), "packets/op")
}

// BenchmarkParallelReplay measures flow-sharded replay throughput at 1, 2,
// 4, and 8 workers against the lock-free pipeline — the worker-scaling curve
// of the parallel replay engine. Reported packets/op and pps make the
// speedup directly comparable across sub-benchmarks (on a multicore machine
// 4 workers should sustain >= 2.5x the single-worker throughput; a 1-CPU
// runner reports flat numbers).
func BenchmarkParallelReplay(b *testing.B) {
	cfg := traffic.DefaultConfig()
	cfg.DurationMs = 200
	tr := traffic.Generate(cfg)
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ct := mustOpen(b)
			if _, err := ct.Deploy("program fwd(<hdr.ipv4.dst, 0, 0>) { FORWARD(2); }"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				traffic.ReplayParallel(tr, ct.SW, nil, 50, workers)
			}
			b.StopTimer()
			b.ReportMetric(float64(len(tr.Events)), "packets/op")
			if ns := b.Elapsed().Nanoseconds(); ns > 0 {
				b.ReportMetric(float64(len(tr.Events)*b.N)/b.Elapsed().Seconds(), "pps")
			}
		})
	}
}

// BenchmarkIncrementalUpdate measures the §7-extension runtime case
// addition/removal round trip on a linked cache program.
func BenchmarkIncrementalUpdate(b *testing.B) {
	ct := mustOpen(b)
	spec, _ := programs.Get("cache")
	if _, err := ct.Deploy(spec.DefaultSource()); err != nil {
		b.Fatal(err)
	}
	caseSrc := `
case(<har, 1, 0xffffffff>, <sar, 0x4242, 0xffffffff>, <mar, 0, 0xffffffff>) {
    RETURN;
    LOADI(mar, 9);
    MEMREAD(mem1);
    MODIFY(hdr.nc.value, sar);
};`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		added, _, err := ct.AddCases("cache", 4, caseSrc)
		if err != nil {
			b.Fatal(err)
		}
		if err := ct.RemoveCase("cache", added[0].BranchID); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChainHop measures a two-pass program crossing a two-switch
// chain, including shim serialization between hops.
func BenchmarkChainHop(b *testing.B) {
	ch, err := OpenChain(2, DefaultConfig(), DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	spec, _ := programs.Get("calc")
	if _, err := ch.Deploy(spec.DefaultSource()); err != nil {
		b.Fatal(err)
	}
	flow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: pkt.PortCalculator, Proto: pkt.ProtoUDP}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pkt.NewCalc(flow, pkt.CalcSub, uint32(i)+100, 7)
		if res := ch.Inject(p, 1); res.Verdict != rmt.VerdictReflected {
			b.Fatalf("verdict %v", res.Verdict)
		}
	}
}

// BenchmarkAblationRepair measures one allocation on a loaded switch with
// and without the aggregate-repair loop.
func BenchmarkAblationRepair(b *testing.B) {
	for _, disable := range []bool{false, true} {
		name := "repair-on"
		if disable {
			name = "repair-off"
		}
		b.Run(name, func(b *testing.B) {
			opt := core.DefaultOptions()
			opt.DisableAggregateRepair = disable
			ct, err := Open(DefaultConfig(), opt)
			if err != nil {
				b.Fatal(err)
			}
			spec, _ := programs.Get("nc")
			params := programs.DefaultParams()
			for i := 0; i < 100; i++ {
				_, src := programs.Instantiate(spec, i, params)
				if _, err := ct.Deploy(src); err != nil {
					b.Fatalf("preload: %v", err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				name, src := programs.Instantiate(spec, 10000+i, params)
				if _, err := ct.Deploy(src); err != nil {
					b.Fatal(err)
				}
				if _, err := ct.Revoke(name); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPostcardSampling quantifies the postcard sampler's tax on the
// packet path: the forward-only workload with sampling disabled, at the
// daemon's default 1-in-1024 cadence, and at the pathological 1-in-1
// setting. The acceptance bound is the 1024 case: within 5% of disabled
// ns/op and 0 allocs/op (the ~2 pooled allocations per sampled packet
// amortize to zero at that cadence).
func BenchmarkPostcardSampling(b *testing.B) {
	for _, every := range []int{0, 1024, 1} {
		name := "disabled"
		if every > 0 {
			name = fmt.Sprintf("every=%d", every)
		}
		b.Run(name, func(b *testing.B) {
			ct := mustOpen(b)
			if _, err := ct.Deploy("program fwd(<hdr.ipv4.dst, 0, 0>) { FORWARD(2); }"); err != nil {
				b.Fatal(err)
			}
			ct.SW.EnablePostcards(every, 256)
			flow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: pkt.ProtoUDP}
			p := pkt.NewUDP(flow, 512)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ct.SW.Inject(p, 1)
			}
		})
	}
}

// BenchmarkFabricReplay measures end-to-end packets per second across a
// 3-switch leaf-spine path (leaf0 -> spine0 -> leaf1): every packet is
// counted into a CMS at the leaf, routed on destination prefix at the
// spine, and handed to the edge at the far leaf, with each hop riding the
// InjectBatch path. ns/op is per end-to-end packet.
func BenchmarkFabricReplay(b *testing.B) {
	cfg := DefaultConfig()
	f := NewFabric(FabricOptions{})
	cts, err := OpenFabricNodes(f, cfg, DefaultOptions(), "leaf0", "leaf1", "spine0")
	if err != nil {
		b.Fatal(err)
	}
	if err := f.WireLeafSpine(2, 1, cfg, 0); err != nil {
		b.Fatal(err)
	}
	leafSrc := fmt.Sprintf(`@ up_cms 1024
program up(
    <meta.ingress_port, 1, 0xffffffff>) {
    LOADI(sar, 1);
    HASH_5_TUPLE_MEM(up_cms);
    MEMADD(up_cms);
    FORWARD(%d);
}
program down(
    <meta.ingress_port, %d, 0xffffffff>) {
    FORWARD(2);
}
`, f.LeafUplinkPort(0), f.LeafUplinkPort(0))
	spineSrc := fmt.Sprintf(`program to1(
    <hdr.ipv4.dst, 10.101.0.0, 0xffff0000>) {
    FORWARD(%d);
}
`, f.SpineDownlinkPort(1))
	for _, n := range []string{"leaf0", "leaf1"} {
		if _, err := cts[n].Deploy(leafSrc); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := cts["spine0"].Deploy(spineSrc); err != nil {
		b.Fatal(err)
	}

	tc := traffic.DefaultConfig()
	tc.Flows = 256
	tc.HeavyFlows = 16
	tc.DurationMs = 100
	tc.RateMbps = 50
	tc.DstPrefix = [2]byte{10, 101}
	tr := traffic.Generate(tc)
	for i := range tr.Events {
		tr.Events[i].Node = "leaf0"
	}

	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += len(tr.Events) {
		res, err := f.Replay(tr, nil, FabricReplayOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Delivered != uint64(len(tr.Events)) {
			b.Fatalf("delivered %d of %d", res.Delivered, len(tr.Events))
		}
	}
}

// BenchmarkUpgradeCutover measures the hitless-upgrade cutover: one epoch
// publication flips every init-table dispatch entry between v1 and v2 with
// no table churn. ns/op is the full controller round trip (journal-less)
// plus one probe packet; epoch-ns is the epoch publication alone, averaged
// from the sessions' own timing. The acceptance bound is the stalled metric:
// a packet injected immediately after every flip must forward — zero packets
// stalled per cutover.
func BenchmarkUpgradeCutover(b *testing.B) {
	ct := mustOpen(b)
	v1 := "program upgbench(<hdr.ipv4.src, 10.0.0.0, 0xff000000>) { FORWARD(2); }"
	v2 := "program upgbench(<hdr.ipv4.src, 10.0.0.0, 0xff000000>) { FORWARD(3); }"
	if _, err := ct.Deploy(v1); err != nil {
		b.Fatal(err)
	}
	if _, err := ct.UpgradePrepare("upgbench", v2); err != nil {
		b.Fatal(err)
	}
	flow := pkt.FiveTuple{SrcIP: pkt.IP(10, 0, 7, 7), DstIP: 9, SrcPort: 1, DstPort: 2, Proto: pkt.ProtoUDP}
	p := pkt.NewUDP(flow, 100)
	stalled := 0
	var epochNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := ct.UpgradeCutover("upgbench", 2-i%2)
		if err != nil {
			b.Fatal(err)
		}
		epochNs += st.CutoverNs
		if res := ct.SW.Inject(p, 1); res.Verdict != rmt.VerdictForwarded {
			stalled++
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(epochNs)/float64(b.N), "epoch-ns")
	b.ReportMetric(float64(stalled)/float64(b.N), "stalled-pkts/cutover")
	if stalled != 0 {
		b.Fatalf("%d of %d cutovers stalled the probe packet", stalled, b.N)
	}
}

// BenchmarkMulticastForward exercises the lock-free multicast group
// snapshot on the packet path: resolving a replication list per packet must
// not allocate (see TestMulticastVerdictZeroAlloc for the hard assertion).
func BenchmarkMulticastForward(b *testing.B) {
	sw := rmt.New(DefaultConfig())
	tbl, err := sw.AddTable("mc", rmt.Ingress, 0, 8, 1, func(p *rmt.PHV) []uint32 {
		return p.KeyScratch(1)
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := tbl.RegisterAction("mcast", 0, func(p *rmt.PHV, _ []uint32) {
		p.Meta.McastGroup = 7
	}); err != nil {
		b.Fatal(err)
	}
	if err := tbl.SetDefault("mcast"); err != nil {
		b.Fatal(err)
	}
	sw.SetMulticastGroup(7, []int{3, 4, 5})
	flow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: pkt.ProtoUDP}
	p := pkt.NewUDP(flow, 512)
	sw.Inject(p, 1) // warm the PHV pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := sw.Inject(p, 1); res.Verdict != rmt.VerdictMulticast {
			b.Fatalf("verdict %v", res.Verdict)
		}
	}
}

// BenchmarkDeployThroughput compares looped Deploy against the batched
// DeployAll entry point on a journaled controller with SyncAlways: the
// loop pays one fsync per program, the batch journals the whole set as a
// single group-committed record. Reported as programs/s.
func BenchmarkDeployThroughput(b *testing.B) {
	const batch = 16
	sources := make([]string, batch)
	names := make([]string, batch)
	for i := range sources {
		names[i] = fmt.Sprintf("thr%d", i)
		sources[i] = fmt.Sprintf(
			"program thr%d(<hdr.ipv4.src, 10.%d.%d.0, 0xffffff00>) { FORWARD(2); }",
			i, 1+i/250, i%250)
	}
	for _, mode := range []string{"looped", "batched"} {
		b.Run(mode, func(b *testing.B) {
			ct, err := controlplane.Recover(b.TempDir(), DefaultConfig(), DefaultOptions(),
				journal.Options{Sync: journal.SyncAlways})
			if err != nil {
				b.Fatal(err)
			}
			defer ct.Journal().Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "batched" {
					outs, err := ct.DeployAll(sources, false)
					if err != nil {
						b.Fatal(err)
					}
					for _, oc := range outs {
						if oc.Err != nil {
							b.Fatal(oc.Err)
						}
					}
				} else {
					for _, src := range sources {
						if _, err := ct.Deploy(src); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.StopTimer()
				for _, n := range names {
					if _, err := ct.Revoke(n); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "programs/s")
		})
	}
}

// BenchmarkDeployTraced measures the cost of operation tracing on deploy
// throughput: the same journaled deploy/revoke loop as DeployThroughput,
// run untraced, with a disabled tracer attached (the default daemon
// configuration), and with tracing enabled. The acceptance bar is that
// "traced" stays within a few percent of "untraced" programs/s; "disabled"
// should be indistinguishable from "untraced".
func BenchmarkDeployTraced(b *testing.B) {
	const batch = 16
	sources := make([]string, batch)
	names := make([]string, batch)
	for i := range sources {
		names[i] = fmt.Sprintf("trc%d", i)
		sources[i] = fmt.Sprintf(
			"program trc%d(<hdr.ipv4.src, 10.%d.%d.0, 0xffffff00>) { FORWARD(2); }",
			i, 1+i/250, i%250)
	}
	for _, mode := range []string{"untraced", "disabled", "traced"} {
		b.Run(mode, func(b *testing.B) {
			ct, err := controlplane.Recover(b.TempDir(), DefaultConfig(), DefaultOptions(),
				journal.Options{Sync: journal.SyncAlways})
			if err != nil {
				b.Fatal(err)
			}
			defer ct.Journal().Close()
			if mode != "untraced" {
				tr := trace.New(trace.Options{})
				tr.SetEnabled(mode == "traced")
				ct.SetTracing(tr, trace.NewFlightRecorder(512))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, src := range sources {
					if _, err := ct.Deploy(src); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				for _, n := range names {
					if _, err := ct.Revoke(n); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "programs/s")
		})
	}
}

// BenchmarkMemWriteBatch compares looped WriteMemory (one journal fsync
// per bucket under SyncAlways) against WriteMemoryBatch (the whole set
// validated up front and journaled as one group). Reported as entries/s.
func BenchmarkMemWriteBatch(b *testing.B) {
	const words = 512
	writes := make([]controlplane.MemWrite, words)
	for i := range writes {
		writes[i] = controlplane.MemWrite{Addr: uint32(i), Value: uint32(i + 1)}
	}
	src := `
@ bulk 512
program bulkbench(<hdr.ipv4.src, 10.200.0.0, 0xffff0000>) {
    LOADI(sar, 1);
    HASH_5_TUPLE_MEM(bulk);
    MEMADD(bulk);
}
`
	for _, mode := range []string{"looped", "batched"} {
		b.Run(mode, func(b *testing.B) {
			ct, err := controlplane.Recover(b.TempDir(), DefaultConfig(), DefaultOptions(),
				journal.Options{Sync: journal.SyncAlways})
			if err != nil {
				b.Fatal(err)
			}
			defer ct.Journal().Close()
			if _, err := ct.Deploy(src); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode == "batched" {
					if n, err := ct.WriteMemoryBatch("bulkbench", "bulk", writes); err != nil || n != words {
						b.Fatalf("wrote %d: %v", n, err)
					}
				} else {
					for _, w := range writes {
						if err := ct.WriteMemory("bulkbench", "bulk", w.Addr, w.Value); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.ReportMetric(float64(words*b.N)/b.Elapsed().Seconds(), "entries/s")
		})
	}
}

// BenchmarkPipelineDepth measures wire ops per second as a function of
// requests in flight per flush: depth 1 is classic request/response
// lockstep, deeper pipelines amortize the round trip across many ops.
func BenchmarkPipelineDepth(b *testing.B) {
	ct := mustOpen(b)
	srv := wire.NewServer(ct, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := wire.Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for _, depth := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			calls := make([]*wire.PendingCall, depth)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := c.Pipeline()
				for j := 0; j < depth; j++ {
					calls[j] = p.Call(wire.MethodStatus, nil, nil)
				}
				if err := p.Flush(); err != nil {
					b.Fatal(err)
				}
				for _, pc := range calls {
					if pc.Err() != nil {
						b.Fatal(pc.Err())
					}
				}
			}
			b.ReportMetric(float64(depth*b.N)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}
