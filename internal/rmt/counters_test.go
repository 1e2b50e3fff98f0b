package rmt_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/core"
	"p4runpro/internal/pkt"
	"p4runpro/internal/programs"
	"p4runpro/internal/rmt"
)

// mixedPrograms are linked by mixedController. Each owns one destination /16
// (10.<i+1>/16 for program i), except hh (source 10.0/16) and calc (UDP port
// 9998); 10.7/16 and 10.9/16 belong to nobody.
var mixedPrograms = []string{"fwd", "cms", "mc", "refl", "drop", "cpu", "hh", "calc"}

// mixedController links programs whose traffic ends in every verdict the
// switch counts: forward, SALU count-min and heavy hitter, multicast,
// reflect, drop, to-cpu, a recirculating calculator, and (for packets no
// filter admits) no decision.
func mixedController(t *testing.T) *controlplane.Controller {
	t.Helper()
	ct, err := controlplane.New(rmt.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.SetMulticastGroup(7, []int{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	hh, _ := programs.Get("hh")
	calc, _ := programs.Get("calc")
	for _, src := range []string{
		"program fwd(<hdr.ipv4.dst, 10.1.0.0, 0xffff0000>) { FORWARD(2); }",
		"@ cms_m 256\nprogram cms(<hdr.ipv4.dst, 10.2.0.0, 0xffff0000>) { LOADI(sar, 1); HASH_5_TUPLE_MEM(cms_m); MEMADD(cms_m); FORWARD(3); }",
		"program mc(<hdr.ipv4.dst, 10.3.0.0, 0xffff0000>) { MULTICAST(7); }",
		"program refl(<hdr.ipv4.dst, 10.4.0.0, 0xffff0000>) { RETURN; }",
		"program drop(<hdr.ipv4.dst, 10.5.0.0, 0xffff0000>) { DROP; }",
		"program cpu(<hdr.ipv4.dst, 10.6.0.0, 0xffff0000>) { REPORT; }",
		hh.Source("hh", programs.Params{MemWords: 1024, Elastic: 2}),
		calc.DefaultSource(),
	} {
		if _, err := ct.Deploy(src); err != nil {
			t.Fatalf("deploy %q: %v", src, err)
		}
	}
	return ct
}

// mixedPacket is one packet of mixedTraffic: a constructor, since programs
// rewrite headers and each switch needs its own copy, and an ingress port.
type mixedPacket struct {
	mk   func() *pkt.Packet
	port int
}

// mixedTraffic draws n packets over every program of mixedController and
// over unowned destinations. Ingress ports change every few packets, so a
// burst's per-port runs both continue and break.
func mixedTraffic(n int) []mixedPacket {
	rng := rand.New(rand.NewSource(1))
	out := make([]mixedPacket, n)
	port := 1
	for i := range out {
		if rng.Intn(4) == 0 {
			port = 1 + rng.Intn(4)
		}
		flow := pkt.FiveTuple{
			SrcIP: pkt.IP(172, 16, 0, byte(rng.Intn(8))), SrcPort: uint16(1000 + rng.Intn(64)),
			DstPort: 80, Proto: pkt.ProtoUDP,
		}
		size := 64 + rng.Intn(1400)
		var mk func() *pkt.Packet
		switch k := rng.Intn(9); k {
		case 7: // heavy hitter: a handful of flows, so some cross its threshold
			flow.SrcIP, flow.DstIP = pkt.IP(10, 0, 0, byte(rng.Intn(2))), pkt.IP(10, 8, 0, 1)
			flow.SrcPort = 7
			mk = func() *pkt.Packet { return pkt.NewUDP(flow, size) }
		case 8: // calculator: ADD reflects, SUB recirculates, 9 is dropped
			flow.DstIP = pkt.IP(10, 9, 0, 1)
			op, a, b := []uint32{pkt.CalcAdd, pkt.CalcSub, 9}[rng.Intn(3)], rng.Uint32()%1000, rng.Uint32()%1000
			mk = func() *pkt.Packet { return pkt.NewCalc(flow, op, a, b) }
		default: // program k's /16, 10.7/16 (k = 6) owned by nobody
			flow.DstIP = pkt.IP(10, byte(k+1), 0, byte(rng.Intn(4)))
			mk = func() *pkt.Packet { return pkt.NewUDP(flow, size) }
		}
		out[i] = mixedPacket{mk: mk, port: port}
	}
	return out
}

// injectBursts sends traffic to sw in InjectBatch bursts of size.
func injectBursts(sw *rmt.Switch, traffic []mixedPacket, size int) {
	items := make([]rmt.BatchItem, 0, size)
	for lo := 0; lo < len(traffic); lo += size {
		items = items[:0]
		for _, mp := range traffic[lo:min(lo+size, len(traffic))] {
			items = append(items, rmt.BatchItem{Pkt: mp.mk(), Port: mp.port})
		}
		sw.InjectBatch(items)
	}
}

// TestBurstCountersExact: counters tallied per burst and flushed when the
// burst returns equal the counters of the same traffic injected one packet at
// a time — per entry, per program, per port, and the whole metrics snapshot.
func TestBurstCountersExact(t *testing.T) {
	traffic := mixedTraffic(3000)
	batched, serial := mixedController(t), mixedController(t)
	injectBursts(batched.SW, traffic, 64)
	for _, mp := range traffic {
		serial.SW.Inject(mp.mk(), mp.port)
	}

	want := serial.SW.Metrics()
	for _, v := range []rmt.Verdict{rmt.VerdictForwarded, rmt.VerdictDropped, rmt.VerdictReflected,
		rmt.VerdictToCPU, rmt.VerdictNoDecision, rmt.VerdictMulticast} {
		if want.Verdicts[v] == 0 {
			t.Errorf("the traffic produced no %v packet", v)
		}
	}
	if want.Recircs == 0 || want.SALUOps == 0 {
		t.Errorf("the traffic made %d recirculations and %d SALU ops, want both > 0", want.Recircs, want.SALUOps)
	}
	if got := batched.SW.Metrics(); !reflect.DeepEqual(got, want) {
		t.Errorf("metrics: bursts %+v, per packet %+v", got, want)
	}
	for port := 0; port < rmt.DefaultConfig().Ports+8; port++ {
		if got, want := batched.SW.PortStats(port), serial.SW.PortStats(port); got != want {
			t.Errorf("port %d tx: bursts %+v, per packet %+v", port, got, want)
		}
		if got, want := batched.SW.RxStats(port), serial.SW.RxStats(port); got != want {
			t.Errorf("port %d rx: bursts %+v, per packet %+v", port, got, want)
		}
	}
	gp, gb := batched.SW.RecircStats()
	wp, wb := serial.SW.RecircStats()
	if gp != wp || gb != wb {
		t.Errorf("recirculations: bursts %d/%d B, per packet %d/%d B", gp, gb, wp, wb)
	}
	for _, name := range mixedPrograms {
		got, want := batched.ProgramHits(name), serial.ProgramHits(name)
		if got != want || want == 0 {
			t.Errorf("program %s hits: bursts %d, per packet %d (want equal and > 0)", name, got, want)
		}
	}
	for _, tb := range batched.SW.Tables() {
		ts, _ := serial.SW.Table(tb.Name)
		got, want := tb.Entries(), ts.Entries()
		if len(got) != len(want) {
			t.Fatalf("table %s: %d entries against %d", tb.Name, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || got[i].Hits() != want[i].Hits() {
				t.Errorf("table %s entry %d: %d hits in bursts, entry %d %d hits per packet",
					tb.Name, got[i].ID, got[i].Hits(), want[i].ID, want[i].Hits())
			}
		}
	}
}

// TestCountersNeverGoBackwards polls every packet-path counter while workers
// inject bursts (run it with -race): a reader may see a burst late, never a
// counter move backwards, and once the workers return every packet is
// counted.
func TestCountersNeverGoBackwards(t *testing.T) {
	ct := mixedController(t)
	traffic := mixedTraffic(1024)
	const rounds = 4
	workers := max(2, runtime.GOMAXPROCS(0))

	read := func() []uint64 {
		m := ct.SW.Metrics()
		v := append([]uint64{m.Packets, m.Passes, m.Recircs, m.SALUOps}, m.Verdicts[:]...)
		v = append(v, m.StageLookups...)
		for _, port := range []int{1, 2, 3, 4, 5} {
			v = append(v, ct.SW.PortStats(port).TxPackets, ct.SW.RxStats(port).TxPackets)
		}
		for _, name := range mixedPrograms {
			v = append(v, ct.ProgramHits(name))
		}
		return append(v, ct.SW.StageLookupCount(0))
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				injectBursts(ct.SW, traffic, 16+w)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	prev := read()
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		cur := read()
		for i := range cur {
			if cur[i] < prev[i] {
				t.Fatalf("counter %d went backwards: %d after %d", i, cur[i], prev[i])
			}
		}
		prev = cur
	}
	if got, want := ct.SW.Metrics().Packets, uint64(workers*rounds*len(traffic)); got != want {
		t.Errorf("%d packets counted, %d injected", got, want)
	}
}
