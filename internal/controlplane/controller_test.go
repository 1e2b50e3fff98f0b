package controlplane

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"p4runpro/internal/core"
	"p4runpro/internal/pkt"
	"p4runpro/internal/programs"
	"p4runpro/internal/rmt"
)

func newController(t testing.TB) *Controller {
	t.Helper()
	ct, err := New(rmt.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return ct
}

// TestAllFifteenProgramsDeploy: every Table 1 program parses, checks,
// translates, allocates, and links on one fresh switch, within the R=1
// recirculation budget (§6.3: all 15 fit within one iteration).
func TestAllFifteenProgramsDeploy(t *testing.T) {
	ct := newController(t)
	recircCount := 0
	for _, spec := range programs.All() {
		reports, err := ct.Deploy(spec.DefaultSource())
		if err != nil {
			t.Fatalf("deploy %s: %v\nsource:\n%s", spec.Name, err, spec.DefaultSource())
		}
		r := reports[0]
		if r.Entries == 0 {
			t.Errorf("%s: no entries installed", spec.Name)
		}
		lp, _ := ct.Compiler.Linked(spec.Name)
		if lp.Alloc.MaxPass() > 1 {
			t.Errorf("%s: uses %d recirculations, budget is 1", spec.Name, lp.Alloc.MaxPass())
		}
		if lp.Alloc.MaxPass() == 1 {
			recircCount++
		}
	}
	if got := len(ct.Programs()); got != 15 {
		t.Fatalf("linked programs = %d, want 15", got)
	}
	// The paper reports 13 of 15 run without recirculation; our depths
	// differ slightly, but most programs must fit in a single pass.
	if recircCount > 5 {
		t.Errorf("%d of 15 programs recirculate; expected a small minority", recircCount)
	}
}

// TestCalculatorFunctional exercises the calculator program, including the
// SUB pseudo-primitive expansion (two's-complement) and recirculation for
// the deep branch.
func TestCalculatorFunctional(t *testing.T) {
	ct := newController(t)
	spec, _ := programs.Get("calc")
	if _, err := ct.Deploy(spec.DefaultSource()); err != nil {
		t.Fatalf("deploy calc: %v", err)
	}
	flow := pkt.FiveTuple{
		SrcIP: pkt.IP(10, 0, 0, 1), DstIP: pkt.IP(10, 0, 0, 2),
		SrcPort: 4000, DstPort: pkt.PortCalculator, Proto: pkt.ProtoUDP,
	}
	cases := []struct {
		op, a, b, want uint32
	}{
		{pkt.CalcAdd, 7, 5, 12},
		{pkt.CalcSub, 7, 5, 2},
		{pkt.CalcSub, 5, 7, 0xfffffffe}, // wraps, two's complement
		{pkt.CalcAnd, 0b1100, 0b1010, 0b1000},
		{pkt.CalcOr, 0b1100, 0b1010, 0b1110},
		{pkt.CalcXor, 0b1100, 0b1010, 0b0110},
	}
	for _, c := range cases {
		p := pkt.NewCalc(flow, c.op, c.a, c.b)
		res := ct.SW.Inject(p, 3)
		if res.Verdict != rmt.VerdictReflected {
			t.Fatalf("op %d: verdict %v, want reflected", c.op, res.Verdict)
		}
		if p.Calc.Result != c.want {
			t.Errorf("op %d: %d?%d = %d, want %d", c.op, c.a, c.b, p.Calc.Result, c.want)
		}
	}
	// Unknown opcode drops.
	p := pkt.NewCalc(flow, 99, 1, 2)
	if res := ct.SW.Inject(p, 3); res.Verdict != rmt.VerdictDropped {
		t.Errorf("unknown op verdict = %v, want dropped", res.Verdict)
	}
}

// TestLoadBalancerFunctional populates the DIP and port pools through
// control-plane memory writes and verifies flows are rewritten and split.
func TestLoadBalancerFunctional(t *testing.T) {
	ct := newController(t)
	spec, _ := programs.Get("lb")
	if _, err := ct.Deploy(spec.DefaultSource()); err != nil {
		t.Fatalf("deploy lb: %v", err)
	}
	// DIP pool: bucket i -> 10.8.0.(i%2+1); port pool: bucket i -> i%2.
	for i := uint32(0); i < 256; i++ {
		if err := ct.WriteMemory(context.Background(), "lb", "dip_pool", i, pkt.IP(10, 8, 0, byte(i%2+1))); err != nil {
			t.Fatalf("write dip: %v", err)
		}
		if err := ct.WriteMemory(context.Background(), "lb", "port_pool", i, i%2); err != nil {
			t.Fatalf("write port: %v", err)
		}
	}
	counts := map[int]int{}
	for i := 0; i < 200; i++ {
		flow := pkt.FiveTuple{
			SrcIP: pkt.IP(172, 16, 0, byte(i)), DstIP: pkt.IP(10, 0, 0, 9),
			SrcPort: uint16(2000 + i), DstPort: 80, Proto: pkt.ProtoTCP,
		}
		p := pkt.NewTCP(flow, pkt.TCPSyn, 200)
		res := ct.SW.Inject(p, 5)
		if res.Verdict != rmt.VerdictForwarded {
			t.Fatalf("flow %d: verdict %v", i, res.Verdict)
		}
		counts[res.OutPort]++
		if p.IP4.Dst != pkt.IP(10, 8, 0, 1) && p.IP4.Dst != pkt.IP(10, 8, 0, 2) {
			t.Fatalf("flow %d: DIP not rewritten: %08x", i, p.IP4.Dst)
		}
		// Port and DIP derive from the same bucket index.
		wantDst := pkt.IP(10, 8, 0, byte(res.OutPort+1))
		if p.IP4.Dst != wantDst {
			t.Errorf("flow %d: port %d but DIP %08x", i, res.OutPort, p.IP4.Dst)
		}
	}
	if len(counts) != 2 {
		t.Fatalf("flows hit %d ports, want 2: %v", len(counts), counts)
	}
	// Rough balance: neither port starves.
	for port, n := range counts {
		if n < 40 {
			t.Errorf("port %d got only %d of 200 flows", port, n)
		}
	}
}

// TestHeavyHitterFunctional: a single elephant flow crosses the CMS
// threshold and is reported exactly once (Bloom filter dedup), mice are not.
func TestHeavyHitterFunctional(t *testing.T) {
	ct := newController(t)
	spec, _ := programs.Get("hh")
	// 4096-bucket rows keep collision noise negligible for this test.
	if _, err := ct.Deploy(spec.Source("hh", programs.Params{MemWords: 4096, Elastic: 2})); err != nil {
		t.Fatalf("deploy hh: %v", err)
	}
	elephant := pkt.FiveTuple{
		SrcIP: pkt.IP(10, 0, 1, 1), DstIP: pkt.IP(10, 2, 0, 1),
		SrcPort: 1111, DstPort: 80, Proto: pkt.ProtoTCP,
	}
	mouse := pkt.FiveTuple{
		SrcIP: pkt.IP(10, 0, 1, 2), DstIP: pkt.IP(10, 2, 0, 1),
		SrcPort: 2222, DstPort: 80, Proto: pkt.ProtoTCP,
	}
	for i := 0; i < 1100; i++ {
		ct.SW.Inject(pkt.NewTCP(elephant, pkt.TCPAck, 300), 2)
		if i < 50 {
			ct.SW.Inject(pkt.NewTCP(mouse, pkt.TCPAck, 300), 2)
		}
	}
	reported := ct.SW.DrainCPU()
	if len(reported) != 1 {
		t.Fatalf("reported %d packets, want exactly 1 (BF dedup)", len(reported))
	}
	if got := reported[0].FiveTuple(); got != elephant {
		t.Errorf("reported flow %v, want elephant %v", got, elephant)
	}
}

// TestECNFunctional: the ECN program marks CE only beyond the queue-depth
// threshold.
func TestECNFunctional(t *testing.T) {
	ct := newController(t)
	spec, _ := programs.Get("ecn")
	if _, err := ct.Deploy(spec.DefaultSource()); err != nil {
		t.Fatalf("deploy ecn: %v", err)
	}
	flow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: pkt.ProtoTCP}

	deep := pkt.NewTCP(flow, pkt.TCPAck, 100)
	phvDeep := injectWithQDepth(ct, deep, 5000)
	if phvDeep.IP4.ECN != 3 {
		t.Errorf("deep queue: ECN = %d, want 3", phvDeep.IP4.ECN)
	}
	shallow := pkt.NewTCP(flow, pkt.TCPAck, 100)
	phvShallow := injectWithQDepth(ct, shallow, 10)
	if phvShallow.IP4.ECN != 0 {
		t.Errorf("shallow queue: ECN = %d, want 0", phvShallow.IP4.ECN)
	}
}

func injectWithQDepth(ct *Controller, p *pkt.Packet, qdepth uint32) *pkt.Packet {
	ct.SW.SetQueueDepth(qdepth)
	ct.SW.Inject(p, 1)
	return p
}

// TestMemoryAccessTranslation: control-plane reads observe data plane
// writes through virtual addresses, and out-of-range access fails.
func TestMemoryAccessTranslation(t *testing.T) {
	ct := newController(t)
	spec, _ := programs.Get("cms")
	if _, err := ct.Deploy(spec.DefaultSource()); err != nil {
		t.Fatalf("deploy cms: %v", err)
	}
	flow := pkt.FiveTuple{SrcIP: pkt.IP(10, 0, 7, 7), DstIP: 9, SrcPort: 1, DstPort: 2, Proto: pkt.ProtoUDP}
	for i := 0; i < 5; i++ {
		ct.SW.Inject(pkt.NewUDP(flow, 100), 1)
	}
	row, err := ct.ReadMemoryRange("cms", "cms_row1", 0, 256)
	if err != nil {
		t.Fatalf("ReadMemoryRange: %v", err)
	}
	var total uint32
	for _, v := range row {
		total += v
	}
	if total != 5 {
		t.Errorf("row1 total = %d, want 5", total)
	}
	if _, err := ct.ReadMemory("cms", "cms_row1", 256); err == nil {
		t.Error("out-of-range read succeeded")
	}
	if _, err := ct.ReadMemory("cms", "nope", 0); err == nil {
		t.Error("unknown memory read succeeded")
	}
	if _, err := ct.ReadMemory("ghost", "cms_row1", 0); err == nil {
		t.Error("unknown program read succeeded")
	}
}

// TestDeployReportShape sanity-checks the §6.2.1 delay decomposition.
func TestDeployReportShape(t *testing.T) {
	ct := newController(t)
	spec, _ := programs.Get("cache")
	reports, err := ct.Deploy(spec.DefaultSource())
	if err != nil {
		t.Fatal(err)
	}
	r := reports[0]
	if r.UpdateDelay <= 0 || r.Total < r.UpdateDelay {
		t.Errorf("bad delay decomposition: %+v", r)
	}
	if r.Solver.Nodes == 0 {
		t.Error("solver reported zero nodes")
	}
	// Table 1 magnitude: single-digit to low-double-digit milliseconds.
	if ms := r.UpdateDelay.Seconds() * 1000; ms < 2 || ms > 60 {
		t.Errorf("cache modeled update delay %.2f ms, outside Table 1 magnitude", ms)
	}
}

// TestAggregationFunctional runs the §7-extension aggregation program: the
// switch sums per-chunk contributions and multicasts the final packet.
func TestAggregationFunctional(t *testing.T) {
	ct := newController(t)
	ct.SetMulticastGroup(context.Background(), 7, []int{10, 11, 12})
	src := programs.AggSource("agg", 3, 7, programs.Params{MemWords: 64})
	if _, err := ct.Deploy(src); err != nil {
		t.Fatalf("deploy agg: %v", err)
	}
	inject := func(worker int, chunk uint32, grad uint32) rmt.Result {
		flow := pkt.FiveTuple{
			SrcIP: pkt.IP(10, 4, 0, byte(worker+1)), DstIP: pkt.IP(10, 4, 0, 100),
			SrcPort: uint16(7000 + worker), DstPort: pkt.PortNetCache, Proto: pkt.ProtoUDP,
		}
		return ct.SW.Inject(pkt.NewNC(flow, 0, uint64(chunk), grad), 10+worker)
	}
	if res := inject(0, 3, 100); res.Verdict != rmt.VerdictDropped {
		t.Fatalf("worker 0: %v", res.Verdict)
	}
	if res := inject(1, 3, 200); res.Verdict != rmt.VerdictDropped {
		t.Fatalf("worker 1: %v", res.Verdict)
	}
	res := inject(2, 3, 300)
	if res.Verdict != rmt.VerdictMulticast {
		t.Fatalf("final worker: %v", res.Verdict)
	}
	if len(res.OutPorts) != 3 {
		t.Errorf("replicated to %v", res.OutPorts)
	}
	if res.Packet.NC.Value != 600 {
		t.Errorf("aggregate = %d, want 600", res.Packet.NC.Value)
	}
	// Sum is inspectable at the chunk's virtual address.
	if v, err := ct.ReadMemory("agg", "agg_sum", 3); err != nil || v != 600 {
		t.Errorf("agg_sum[3] = %d (%v)", v, err)
	}
}

// TestControllerAddCases drives incremental updates through the controller
// API, including the modeled update delay.
func TestControllerAddCases(t *testing.T) {
	ct := newController(t)
	spec, _ := programs.Get("cache")
	if _, err := ct.Deploy(spec.DefaultSource()); err != nil {
		t.Fatal(err)
	}
	added, delay, err := ct.AddCases(context.Background(), "cache", 4, `
case(<har, 1, 0xffffffff>, <sar, 0xabcd, 0xffffffff>, <mar, 0, 0xffffffff>) {
    RETURN;
    LOADI(mar, 42);
    MEMREAD(mem1);
    MODIFY(hdr.nc.value, sar);
};`)
	if err != nil {
		t.Fatalf("AddCases: %v", err)
	}
	if len(added) != 1 || delay <= 0 {
		t.Fatalf("added=%v delay=%v", added, delay)
	}
	flow := pkt.FiveTuple{
		SrcIP: pkt.IP(10, 0, 0, 1), DstIP: pkt.IP(10, 0, 0, 2),
		SrcPort: 5555, DstPort: pkt.PortNetCache, Proto: pkt.ProtoUDP,
	}
	if err := ct.WriteMemory(context.Background(), "cache", "mem1", 42, 555); err != nil {
		t.Fatal(err)
	}
	p := pkt.NewNC(flow, pkt.NCRead, 0xabcd, 0)
	if res := ct.SW.Inject(p, 1); res.Verdict != rmt.VerdictReflected || p.NC.Value != 555 {
		t.Fatalf("added key: %v value=%d", res.Verdict, p.NC.Value)
	}
	if err := ct.RemoveCase(context.Background(), "cache", added[0].BranchID); err != nil {
		t.Fatal(err)
	}
	if res := ct.SW.Inject(pkt.NewNC(flow, pkt.NCRead, 0xabcd, 0), 1); res.Verdict != rmt.VerdictForwarded {
		t.Errorf("after remove: %v", res.Verdict)
	}
}

// TestProgramHits: per-entry direct counters aggregate into per-program
// traffic monitoring.
func TestProgramHits(t *testing.T) {
	ct := newController(t)
	spec, _ := programs.Get("cms")
	if _, err := ct.Deploy(spec.DefaultSource()); err != nil {
		t.Fatal(err)
	}
	if h := ct.ProgramHits("cms"); h != 0 {
		t.Fatalf("fresh program has %d hits", h)
	}
	flow := pkt.FiveTuple{SrcIP: pkt.IP(10, 0, 3, 3), DstIP: 9, SrcPort: 1, DstPort: 2, Proto: pkt.ProtoUDP}
	for i := 0; i < 4; i++ {
		ct.SW.Inject(pkt.NewUDP(flow, 100), 1)
	}
	h := ct.ProgramHits("cms")
	// Each packet matches 1 init filter + several RPB entries.
	if h < 4*5 {
		t.Errorf("hits = %d, want >= 20", h)
	}
	infos := ct.Programs()
	if infos[0].Hits != h {
		t.Errorf("ProgramInfo.Hits = %d, want %d", infos[0].Hits, h)
	}
}

// TestRecirculatedPassKeepsProgramID: a program that rewrites the field its
// own filter reads keeps the packet on its second pass. a matches
// 10.0.0.1, rewrites the destination to 10.0.0.2 and forwards on pass 2;
// b matches 10.0.0.2. The ID rides the packet across recirculation, so b
// never sees it and a is charged one packet, not one per pass.
func TestRecirculatedPassKeepsProgramID(t *testing.T) {
	ct := newController(t)
	src := `
program a(<hdr.ipv4.dst, 10.0.0.1, 0xffffffff>) {
    LOADI(sar, 0x0a000002);
    MODIFY(hdr.ipv4.dst, sar);
` + strings.Repeat("    ADDI(har, 1);\n", 10) + `    FORWARD(3);
}
program b(<hdr.ipv4.dst, 10.0.0.2, 0xffffffff>) {
    FORWARD(4);
}
`
	if _, err := ct.Deploy(src); err != nil {
		t.Fatal(err)
	}
	if infos := ct.Programs(); infos[0].Name != "a" || infos[0].Passes != 2 {
		t.Fatalf("programs %+v, want a first, in 2 passes", infos)
	}
	flow := pkt.FiveTuple{SrcIP: pkt.IP(10, 9, 9, 9), DstIP: pkt.IP(10, 0, 0, 1), SrcPort: 1, DstPort: 2, Proto: pkt.ProtoUDP}
	p := pkt.NewUDP(flow, 100)
	res := ct.SW.Inject(p, 1)
	if res.Verdict != rmt.VerdictForwarded || res.OutPort != 3 {
		t.Errorf("verdict %v port %d after %d passes, want forwarded on port 3", res.Verdict, res.OutPort, res.Passes)
	}
	if p.IP4.Dst != pkt.IP(10, 0, 0, 2) {
		t.Errorf("dst %#x, want a's rewrite to 10.0.0.2", p.IP4.Dst)
	}
	if a, b := ct.ProgramPacketHits("a"), ct.ProgramPacketHits("b"); a != 1 || b != 0 {
		t.Errorf("packet hits a=%d b=%d, want 1 and 0", a, b)
	}
}

// TestProgramPacketHitsUnderChurn reads per-program hits and the program
// listing while a program's entries change under it: cases added and
// removed at runtime and a prepare/cutover/commit upgrade. Run under -race
// it checks that the readers walk the compiler's entry lists, and copy a
// listing row's name and entry count, only as the writers publish them.
func TestProgramPacketHitsUnderChurn(t *testing.T) {
	ct := newController(t)
	spec, _ := programs.Get("cache")
	if _, err := ct.Deploy(spec.DefaultSource()); err != nil {
		t.Fatal(err)
	}
	const upgSrc = `
program churn(<hdr.ipv4.src, 10.0.0.0, 0xff000000>) {
    FORWARD(2);
}
`
	if _, err := ct.Deploy(upgSrc); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		flow := pkt.FiveTuple{SrcIP: pkt.IP(10, 0, 0, 1), DstIP: 9, SrcPort: 1, DstPort: 2, Proto: pkt.ProtoUDP}
		for {
			select {
			case <-stop:
				return
			default:
			}
			ct.SW.Inject(pkt.NewUDP(flow, 64), 1)
			for _, n := range []string{"cache", "churn", "churn@v2"} {
				ct.ProgramPacketHits(n)
				ct.ProgramHits(n)
			}
			ct.Programs()
		}
	}()
	for i := 0; i < 20; i++ {
		added, _, err := ct.AddCases(context.Background(), "cache", 4, fmt.Sprintf(`
case(<har, 1, 0xffffffff>, <sar, %d, 0xffffffff>, <mar, 0, 0xffffffff>) {
    RETURN;
    LOADI(mar, 42);
    MEMREAD(mem1);
    MODIFY(hdr.nc.value, sar);
};`, 0x1000+i))
		if err != nil {
			t.Fatal(err)
		}
		if err := ct.RemoveCase(context.Background(), "cache", added[0].BranchID); err != nil {
			t.Fatal(err)
		}
		if _, err := ct.UpgradePrepare("churn", strings.Replace(upgSrc, "FORWARD(2)", "FORWARD(3)", 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := ct.UpgradeCutover("churn", 2); err != nil {
			t.Fatal(err)
		}
		if _, err := ct.UpgradeCommit("churn"); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	before := ct.ProgramPacketHits("churn")
	flow := pkt.FiveTuple{SrcIP: pkt.IP(10, 0, 0, 1), DstIP: 9, SrcPort: 1, DstPort: 2, Proto: pkt.ProtoUDP}
	if res := ct.SW.Inject(pkt.NewUDP(flow, 64), 1); res.OutPort != 3 {
		t.Fatalf("post-churn packet left on port %d, want 3", res.OutPort)
	}
	if h := ct.ProgramPacketHits("churn") - before; h != 1 {
		t.Errorf("one more packet raised churn's count by %d, want 1", h)
	}
}
