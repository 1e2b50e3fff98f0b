package p4runpro

import (
	"context"
	"strings"
	"testing"

	"p4runpro/internal/pkt"
	"p4runpro/internal/programs"
	"p4runpro/internal/rmt"
	"p4runpro/internal/wire"
)

func TestOpenAndDeployFacade(t *testing.T) {
	ct, err := Open(DefaultConfig(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := programs.Get("l3route")
	reports, err := ct.Deploy(spec.DefaultSource())
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Program != "l3route" {
		t.Errorf("program = %q", reports[0].Program)
	}
	// 10.1/16 routes to port 1 per the template.
	flow := FiveTuple{SrcIP: 9, DstIP: pkt.IP(10, 1, 0, 5), SrcPort: 1, DstPort: 2, Proto: pkt.ProtoTCP}
	res := ct.SW.Inject(pkt.NewTCP(flow, 0, 100), 0)
	if res.Verdict != rmt.VerdictForwarded || res.OutPort != 1 {
		t.Errorf("result = %v port %d", res.Verdict, res.OutPort)
	}
}

func TestParseProgramFacade(t *testing.T) {
	names, err := ParseProgram(`
program a(<hdr.ipv4.dst, 1, 0xff>) { DROP; }
program b(<hdr.ipv4.dst, 2, 0xff>) { DROP; }
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("names = %v", names)
	}
	if _, err := ParseProgram("program broken"); err == nil {
		t.Error("bad source accepted")
	}
	if _, err := ParseProgram("program c(<hdr.zzz.q, 1, 0xff>) { DROP; }"); err == nil {
		t.Error("semantic error not surfaced")
	}
}

func TestServeConnectFacade(t *testing.T) {
	ct, err := Open(DefaultConfig(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv, addr, err := Serve(ct, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	status, err := client.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "0 programs") {
		t.Errorf("status = %q", status)
	}
	spec, _ := programs.Get("ecn")
	if _, err := client.Deploy(spec.DefaultSource()); err != nil {
		t.Fatal(err)
	}
	progs, err := wire.Call[[]wire.ProgramInfo](context.Background(), client, wire.MethodPrograms, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 1 || progs[0].Name != "ecn" {
		t.Errorf("programs = %+v", progs)
	}
}

// TestFifteenProgramsCoexist links all Table 1 programs through the public
// facade and spot-checks isolation: the calculator still computes while the
// cache still caches.
func TestFifteenProgramsCoexist(t *testing.T) {
	ct, err := Open(DefaultConfig(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range programs.All() {
		if _, err := ct.Deploy(spec.DefaultSource()); err != nil {
			t.Fatalf("deploy %s: %v", spec.Name, err)
		}
	}
	calcFlow := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: pkt.PortCalculator, Proto: pkt.ProtoUDP}
	p := pkt.NewCalc(calcFlow, pkt.CalcAdd, 2, 3)
	if res := ct.SW.Inject(p, 1); res.Verdict != rmt.VerdictReflected || p.Calc.Result != 5 {
		t.Errorf("calc coexistence broken: %v result=%d", res.Verdict, p.Calc.Result)
	}
	cacheFlow := FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: pkt.PortNetCache, Proto: pkt.ProtoUDP}
	w := pkt.NewNC(cacheFlow, pkt.NCWrite, 0x8888, 31)
	if res := ct.SW.Inject(w, 1); res.Verdict != rmt.VerdictDropped {
		t.Errorf("cache write verdict %v", res.Verdict)
	}
	r := pkt.NewNC(cacheFlow, pkt.NCRead, 0x8888, 0)
	if res := ct.SW.Inject(r, 1); res.Verdict != rmt.VerdictReflected || r.NC.Value != 31 {
		t.Errorf("cache coexistence broken: %v value=%d", res.Verdict, r.NC.Value)
	}
	// Revoking one program leaves the others intact.
	if _, err := ct.Revoke("calc"); err != nil {
		t.Fatal(err)
	}
	r2 := pkt.NewNC(cacheFlow, pkt.NCRead, 0x8888, 0)
	if res := ct.SW.Inject(r2, 1); res.Verdict != rmt.VerdictReflected || r2.NC.Value != 31 {
		t.Error("cache broken by unrelated revoke")
	}
	// With calc gone, its traffic falls through to the catch-all L2/L3
	// forwarding programs: still forwarded, but no longer computed.
	p2 := pkt.NewCalc(calcFlow, pkt.CalcAdd, 2, 3)
	if res := ct.SW.Inject(p2, 1); res.Verdict != rmt.VerdictForwarded || p2.Calc.Result != 0 {
		t.Errorf("after revoke: %v result=%d, want plain forwarding", res.Verdict, p2.Calc.Result)
	}
}
