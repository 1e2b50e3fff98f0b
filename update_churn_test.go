package p4runpro

// Updates against live traffic at the control-plane level: a deploy is
// visible to the first packet injected after it returns, and parallel
// batched replay loses no packet under deploy/revoke churn. Run with -race
// in CI.

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/pkt"
	"p4runpro/internal/programs"
	"p4runpro/internal/traffic"
)

// workloadController opens a controller with the standard workload linked:
// a plain forwarder, the calculator (recirculating branch), and a
// heavy-hitter sketch (hashing + SALU state).
func workloadController(t *testing.T) *controlplane.Controller {
	t.Helper()
	ct, err := Open(DefaultConfig(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Deploy("program fwd(<hdr.ipv4.dst, 0, 0>) { FORWARD(2); }"); err != nil {
		t.Fatal(err)
	}
	calc, _ := programs.Get("calc")
	if _, err := ct.Deploy(calc.DefaultSource()); err != nil {
		t.Fatal(err)
	}
	hh, _ := programs.Get("hh")
	if _, err := ct.Deploy(hh.Source("hh", programs.Params{MemWords: 1024, Elastic: 2})); err != nil {
		t.Fatal(err)
	}
	return ct
}

// TestUpdateVisibleWhenDeployReturns is the update-visibility test at the
// control-plane level: while traffic is in flight, a program is revoked and
// replaced with one that forwards elsewhere; the first packet injected after
// Deploy returns must already observe the new behavior — packets read the
// tables the control plane just wrote, so nothing may keep forwarding to the
// old port. The replacement is Revoke then Deploy, so a background packet
// landing in the gap matches nothing (port -1); that is allowed. A gapless
// replacement is UpgradePrepare/Cutover/Commit's job, and its own tests hold
// it to that.
func TestUpdateVisibleWhenDeployReturns(t *testing.T) {
	ct, err := Open(DefaultConfig(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ct.Deploy("program fwd(<hdr.ipv4.dst, 0, 0>) { FORWARD(2); }"); err != nil {
		t.Fatal(err)
	}
	flow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: pkt.ProtoUDP}
	if r := ct.SW.Inject(pkt.NewUDP(flow, 128), 1); r.OutPort != 2 {
		t.Fatalf("pre-update port %d", r.OutPort)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < max(2, runtime.GOMAXPROCS(0)-1); w++ {
		wg.Add(1)
		go func() { // background traffic across the update
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r := ct.SW.Inject(pkt.NewUDP(flow, 128), 1)
				if r.OutPort != 2 && r.OutPort != 3 && r.OutPort != -1 {
					t.Errorf("mid-update port %d", r.OutPort)
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, err := ct.Revoke("fwd"); err != nil {
			t.Fatal(err)
		}
		if _, err := ct.Deploy("program fwd(<hdr.ipv4.dst, 0, 0>) { FORWARD(3); }"); err != nil {
			t.Fatal(err)
		}
		// Deploy returned: no packet injected from here on may see the
		// pre-update entries.
		if r := ct.SW.Inject(pkt.NewUDP(flow, 128), 1); r.OutPort != 3 {
			t.Fatalf("round %d: stale entries matched after update: port %d", i, r.OutPort)
		}
		if _, err := ct.Revoke("fwd"); err != nil {
			t.Fatal(err)
		}
		if _, err := ct.Deploy("program fwd(<hdr.ipv4.dst, 0, 0>) { FORWARD(2); }"); err != nil {
			t.Fatal(err)
		}
		if r := ct.SW.Inject(pkt.NewUDP(flow, 128), 1); r.OutPort != 2 {
			t.Fatalf("round %d: stale entries matched after update: port %d", i, r.OutPort)
		}
	}
	close(stop)
	wg.Wait()
}

// TestCompiledChurnWithDeploys races parallel batched replay against real
// deploy/revoke churn — the -race soak for table-snapshot publication against
// the full control plane.
func TestCompiledChurnWithDeploys(t *testing.T) {
	ct := workloadController(t)
	cfg := traffic.DefaultConfig()
	cfg.DurationMs = 60
	tr := traffic.Generate(cfg)
	spec, _ := programs.Get("cms")
	sched := make([]traffic.Action, 0, 6)
	for i := 0; i < 3; i++ {
		i := i
		at := float64(10 + 15*i)
		sched = append(sched, traffic.Action{AtMs: at, Do: func() {
			name, src := programs.Instantiate(spec, 100+i, programs.DefaultParams())
			if _, err := ct.Deploy(src); err != nil {
				t.Errorf("churn deploy: %v", err)
				return
			}
			if _, err := ct.Revoke(name); err != nil {
				t.Errorf("churn revoke: %v", err)
			}
		}})
	}
	res := traffic.ReplayParallel(tr, ct.SW, sched, 10, 4)
	if res.Packets != len(tr.Events) {
		t.Fatalf("replayed %d of %d packets", res.Packets, len(tr.Events))
	}
}

// TestPacketPathZeroAlloc makes "0 allocs/op" a tier-1 assertion: with the
// standard workload resident and postcards off, neither Inject nor a 64-item
// InjectBatch allocates — for a forwarded packet or for a calculator request
// that recirculates — and neither does a warm Fabric.Inject of a packet that
// crosses two links.
func TestPacketPathZeroAlloc(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("under -race sync.Pool drops a quarter of its Puts on purpose, so the PHV pool allocates")
			}
		}
	}
	ct := workloadController(t)
	udp := pkt.NewUDP(pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: pkt.ProtoUDP}, 128)
	calcFlow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: pkt.PortCalculator, Proto: pkt.ProtoUDP}
	sub := pkt.NewCalc(calcFlow, pkt.CalcSub, 100, 3)
	if r := ct.SW.Inject(sub, 1); r.Passes < 2 {
		t.Fatalf("calculator SUB took %d passes, want a recirculation", r.Passes)
	}
	batch := make([]BatchItem, 64)
	for i := range batch {
		batch[i] = BatchItem{Pkt: udp, Port: 1}
		if i%2 == 1 {
			batch[i].Pkt = sub
		}
	}
	ct.SW.InjectBatch(batch) // warm the PHV pool and its scratch buffers
	if allocs := testing.AllocsPerRun(200, func() {
		ct.SW.Inject(udp, 1)
		ct.SW.Inject(sub, 1)
	}); allocs != 0 {
		t.Errorf("Inject allocates %.1f objects per forwarded+recirculated pair, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { ct.SW.InjectBatch(batch) }); allocs != 0 {
		t.Errorf("InjectBatch allocates %.1f objects per 64-packet burst, want 0", allocs)
	}

	f := leafSpinePath(t)
	far := pkt.NewUDP(pkt.FiveTuple{SrcIP: 1, DstIP: pkt.IP(10, 101, 0, 1), SrcPort: 3, DstPort: 4, Proto: pkt.ProtoUDP}, 128)
	inject := func() {
		if d, err := f.Inject("leaf0", far, 1); err != nil || d.Delivered != 1 || d.Hops != 2 {
			t.Fatalf("Fabric.Inject: %+v, %v; want one copy delivered over 2 hops", d, err)
		}
	}
	inject() // warm the engine scratch
	if allocs := testing.AllocsPerRun(200, inject); allocs != 0 {
		t.Errorf("Fabric.Inject allocates %.1f objects per 2-hop packet, want 0", allocs)
	}
}
