package wire

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/core"
	"p4runpro/internal/journal"
	"p4runpro/internal/pkt"
	"p4runpro/internal/rmt"
)

const testProgram = `
@ m 256
program counter(<hdr.ipv4.src, 10.0.0.0, 0xff000000>) {
    LOADI(sar, 1);
    HASH_5_TUPLE_MEM(m);
    MEMADD(m);
}
`

var bg = context.Background()

// injectFrame sends one frame through the switch behind c.
func injectFrame(c Doer, frame []byte, port int) (InjectResult, error) {
	return Call[InjectResult](bg, c, MethodInject, InjectParams{FrameHex: hex.EncodeToString(frame), Port: port})
}

// readMemory reads count words of testProgram's memory m from addr.
func readMemory(c Doer, addr, count uint32) ([]uint32, error) {
	return Call[[]uint32](bg, c, MethodMemRead, MemReadParams{Program: "counter", Mem: "m", Addr: addr, Count: count})
}

// scrape renders the metrics registry behind c in format.
func scrape(c Doer, format string) (string, error) {
	res, err := Call[MetricsResult](bg, c, MethodMetrics, MetricsParams{Format: format})
	return res.Body, err
}

func startServer(t *testing.T) (*Server, *Client, *controlplane.Controller) {
	t.Helper()
	ct, err := controlplane.New(rmt.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ct, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c, ct
}

func TestDeployRevokeOverWire(t *testing.T) {
	_, c, _ := startServer(t)
	results, err := c.Deploy(testProgram)
	if err != nil {
		t.Fatalf("Deploy: %v", err)
	}
	if len(results) != 1 || results[0].Program != "counter" || results[0].Entries == 0 {
		t.Fatalf("results = %+v", results)
	}
	progs, err := Call[[]ProgramInfo](bg, c, MethodPrograms, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(progs) != 1 || progs[0].Name != "counter" {
		t.Fatalf("programs = %+v", progs)
	}
	rev, err := c.Revoke("counter")
	if err != nil {
		t.Fatal(err)
	}
	if rev.Entries != results[0].Entries || rev.MemReset != 256 {
		t.Errorf("revoke = %+v", rev)
	}
	if _, err := c.Revoke("counter"); err == nil {
		t.Error("double revoke accepted over wire")
	}
}

func TestDeployErrorPropagates(t *testing.T) {
	_, c, _ := startServer(t)
	_, err := c.Deploy("program broken(")
	if err == nil || !strings.Contains(err.Error(), "expected") {
		t.Fatalf("err = %v", err)
	}
	// Connection stays usable after an error.
	if _, err := Call[[]ProgramInfo](bg, c, MethodPrograms, nil); err != nil {
		t.Fatalf("connection broken after error: %v", err)
	}
}

func TestInjectAndMemoryOverWire(t *testing.T) {
	_, c, _ := startServer(t)
	if _, err := c.Deploy(testProgram); err != nil {
		t.Fatal(err)
	}
	flow := pkt.FiveTuple{SrcIP: pkt.IP(10, 1, 2, 3), DstIP: 9, SrcPort: 1, DstPort: 2, Proto: pkt.ProtoUDP}
	frame := pkt.NewUDP(flow, 100).Marshal()
	for i := 0; i < 3; i++ {
		res, err := injectFrame(c, frame, 4)
		if err != nil {
			t.Fatal(err)
		}
		if res.Verdict != "no-decision" { // counter program sets no verdict
			t.Errorf("verdict = %s", res.Verdict)
		}
	}
	vals, err := readMemory(c, 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	var total uint32
	for _, v := range vals {
		total += v
	}
	if total != 3 {
		t.Errorf("counted %d, want 3", total)
	}
	if _, err := c.Do(bg, MethodMemWrite, MemWriteParams{Program: "counter", Mem: "m", Addr: 5, Value: 42}, nil); err != nil {
		t.Fatal(err)
	}
	one, err := readMemory(c, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(one) != 1 || one[0] != 42 {
		t.Errorf("readback = %v", one)
	}
	if _, err := readMemory(c, 300, 1); err == nil {
		t.Error("out-of-range read accepted over wire")
	}
	if _, err := injectFrame(c, []byte{1, 2, 3}, 0); err == nil {
		t.Error("truncated frame accepted")
	}
}

// TestInjectVerbTruncatedFrame: the inject verb parses its own frame, so a
// frame cut anywhere inside its headers must fail with the parser's typed
// error — never a panic — and reach the client as an *OpError on a
// connection that stays usable.
func TestInjectVerbTruncatedFrame(t *testing.T) {
	_, c, ct := startServer(t)
	inject := switchVerbs[MethodInject](ct)
	call := func(frame []byte) error {
		raw, err := json.Marshal(InjectParams{FrameHex: hex.EncodeToString(frame), Port: 2})
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = inject(context.Background(), raw, nil)
		return err
	}
	frame := pkt.NewUDP(pkt.FiveTuple{SrcIP: 5, DstIP: 6, SrcPort: 7, DstPort: 8, Proto: pkt.ProtoUDP}, 100).Marshal()
	if err := call(frame); err != nil {
		t.Fatalf("whole frame: %v", err)
	}
	const headers = 14 + 20 + 8 // ethernet + ipv4 + udp
	for n := 0; n < headers; n++ {
		if err := call(frame[:n]); !errors.Is(err, pkt.ErrTruncated) {
			t.Fatalf("%d-byte prefix: err = %v, want pkt.ErrTruncated", n, err)
		}
	}
	var opErr *OpError
	if _, err := injectFrame(c, frame[:10], 2); !errors.As(err, &opErr) || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("over the wire: err = %v, want a truncated-frame *OpError", err)
	}
	if _, err := injectFrame(c, frame, 2); err != nil {
		t.Fatalf("connection unusable after the error: %v", err)
	}
}

func TestUtilizationAndStatus(t *testing.T) {
	_, c, _ := startServer(t)
	if _, err := c.Deploy(testProgram); err != nil {
		t.Fatal(err)
	}
	rows, err := Call[[]UtilizationRow](bg, c, MethodUtilization, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 22 {
		t.Fatalf("rows = %d", len(rows))
	}
	var memUsed uint32
	for _, r := range rows {
		memUsed += r.MemUsed
	}
	if memUsed != 256 {
		t.Errorf("memory used = %d", memUsed)
	}
	status, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(status, "1 programs") {
		t.Errorf("status = %q", status)
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, _, _ := startServer(t)
	addr := srv.ln.Addr().String()
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				if _, err := c.Status(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMalformedRequestLine(t *testing.T) {
	srv, _, _ := startServer(t)
	conn, err := net.Dial("tcp", srv.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(conn)
	var resp Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error == "" {
		t.Error("malformed request got no error")
	}
	// Unknown method.
	if _, err := conn.Write([]byte(`{"id":1,"method":"nope"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Error, "unknown method") {
		t.Errorf("error = %q", resp.Error)
	}
}

func TestServerClose(t *testing.T) {
	srv, c, _ := startServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Status(); err == nil {
		t.Error("call succeeded after server close")
	}
}

const cacheWireSrc = `
@ mem1 1024
program cache(<hdr.udp.dst_port, 7777, 0xffff>) {
    EXTRACT(hdr.nc.op, har);
    EXTRACT(hdr.nc.key1, sar);
    EXTRACT(hdr.nc.key2, mar);
    BRANCH:
    case(<har, 1, 0xffffffff>, <sar, 0x8888, 0xffffffff>, <mar, 0, 0xffffffff>) {
        RETURN;
        LOADI(mar, 512);
        MEMREAD(mem1);
        MODIFY(hdr.nc.value, sar);
    };
    FORWARD(32);
}
`

func TestIncrementalUpdateOverWire(t *testing.T) {
	_, c, _ := startServer(t)
	if _, err := c.Deploy(cacheWireSrc); err != nil {
		t.Fatal(err)
	}
	res, err := Call[AddCasesResult](bg, c, MethodAddCases, AddCasesParams{Program: "cache", BranchDepth: 4, Source: `
case(<har, 1, 0xffffffff>, <sar, 0x9999, 0xffffffff>, <mar, 0, 0xffffffff>) {
    RETURN;
    LOADI(mar, 600);
    MEMREAD(mem1);
    MODIFY(hdr.nc.value, sar);
};`})
	if err != nil {
		t.Fatalf("AddCases: %v", err)
	}
	if len(res.BranchIDs) != 1 || res.Entries == 0 || res.UpdateDelay <= 0 {
		t.Fatalf("result = %+v", res)
	}
	remove := RemoveCaseParams{Program: "cache", BranchID: res.BranchIDs[0]}
	if _, err := c.Do(bg, MethodRemoveCase, remove, nil); err != nil {
		t.Fatalf("RemoveCase: %v", err)
	}
	if _, err := c.Do(bg, MethodRemoveCase, remove, nil); err == nil {
		t.Error("double remove accepted over wire")
	}
}

func TestMetricsOverWire(t *testing.T) {
	_, c, ct := startServer(t)
	if _, err := c.Deploy(testProgram); err != nil {
		t.Fatal(err)
	}
	flow := pkt.FiveTuple{SrcIP: pkt.IP(10, 1, 2, 3), DstIP: 9, SrcPort: 1, DstPort: 2, Proto: pkt.ProtoUDP}
	frame := pkt.NewUDP(flow, 100).Marshal()
	if _, err := injectFrame(c, frame, 4); err != nil {
		t.Fatal(err)
	}

	body, err := scrape(c, "")
	if err != nil {
		t.Fatalf("Metrics: %v", err)
	}
	for _, want := range []string{
		"p4runpro_deploys_total{outcome=\"ok\"} 1",
		"p4runpro_rmt_packets_total 1",
		"p4runpro_programs_linked 1",
		"p4runpro_compiler_phase_ns",
		"p4runpro_solver_nodes",
		"p4runpro_wire_requests_total",
		"p4runpro_wire_connections_active 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus scrape missing %q", want)
		}
	}

	jbody, err := scrape(c, MetricsFormatJSON)
	if err != nil {
		t.Fatalf("Metrics(json): %v", err)
	}
	var metrics []map[string]any
	if err := json.Unmarshal([]byte(jbody), &metrics); err != nil {
		t.Fatalf("json scrape not a metric array: %v", err)
	}
	if len(metrics) == 0 {
		t.Fatal("json scrape empty")
	}

	if _, err := scrape(c, "xml"); err == nil || !strings.Contains(err.Error(), "unknown metrics format") {
		t.Errorf("bad format err = %v", err)
	}

	// The scrape counters themselves come from the controller's registry.
	if ct.Obs == nil {
		t.Fatal("controller registry nil")
	}
}

func TestMulticastOverWire(t *testing.T) {
	_, c, ct := startServer(t)
	if _, err := c.Do(bg, MethodMcastSet, McastSetParams{Group: 5, Ports: []int{1, 2, 3}}, nil); err != nil {
		t.Fatal(err)
	}
	if got := ct.SW.MulticastGroup(5); len(got) != 3 {
		t.Errorf("group = %v", got)
	}
	if _, err := c.Do(bg, MethodMcastSet, McastSetParams{Group: 5}, nil); err != nil {
		t.Fatal(err)
	}
	if got := ct.SW.MulticastGroup(5); len(got) != 0 {
		t.Errorf("group not cleared: %v", got)
	}
}

// TestSnapshotOverWire drives the snapshot verb end to end against a
// journaled controller: deploy, snapshot (compacting the WAL), and verify
// the verb fails cleanly on a daemon running without a journal.
func TestSnapshotOverWire(t *testing.T) {
	// Without a journal the verb reports a clean error.
	_, c, _ := startServer(t)
	if _, err := Call[SnapshotResult](bg, c, MethodSnapshot, nil); err == nil {
		t.Fatal("snapshot without -wal accepted")
	}

	dir := t.TempDir()
	ct, err := controlplane.Recover(dir, rmt.DefaultConfig(), core.DefaultOptions(),
		journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ct.Journal().Close() })
	srv := NewServer(ct, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	jc, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jc.Close() })

	if _, err := jc.Deploy(testProgram); err != nil {
		t.Fatal(err)
	}
	res, err := Call[SnapshotResult](bg, jc, MethodSnapshot, nil)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if res.WalDir != dir {
		t.Errorf("wal dir = %q, want %q", res.WalDir, dir)
	}
	if res.SegmentBytes != 0 {
		t.Errorf("active segment %dB after compaction, want 0", res.SegmentBytes)
	}
}

// TestConcurrentMetricsScrape: many clients scraping the metrics verb while
// traffic is injected must neither race (run with -race) nor observe a
// malformed exposition.
func TestConcurrentMetricsScrape(t *testing.T) {
	srv, c, _ := startServer(t)
	if _, err := c.Deploy(testProgram); err != nil {
		t.Fatal(err)
	}
	addr := srv.ln.Addr().String()

	const scrapers = 4
	var wg sync.WaitGroup
	errs := make(chan error, scrapers+1)

	// One writer keeps the counters moving while the scrapers read.
	wg.Add(1)
	go func() {
		defer wg.Done()
		flow := pkt.FiveTuple{SrcIP: pkt.IP(10, 1, 2, 3), DstIP: 9, SrcPort: 1, DstPort: 2, Proto: pkt.ProtoUDP}
		frame := pkt.NewUDP(flow, 100).Marshal()
		for i := 0; i < 200; i++ {
			if _, err := injectFrame(c, frame, 4); err != nil {
				errs <- fmt.Errorf("inject: %w", err)
				return
			}
		}
	}()
	for i := 0; i < scrapers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc, err := Dial(addr)
			if err != nil {
				errs <- fmt.Errorf("dial: %w", err)
				return
			}
			defer sc.Close()
			for j := 0; j < 50; j++ {
				body, err := scrape(sc, "")
				if err != nil {
					errs <- fmt.Errorf("scrape: %w", err)
					return
				}
				if !strings.Contains(body, "p4runpro_rmt_packets_total") {
					errs <- fmt.Errorf("scrape %d missing packet counter", j)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestServerDoMatchesClient: an in-process Do answers every verb exactly
// as the same server does over TCP — results, response frames and
// server-reported errors — and counts no wire request.
func TestServerDoMatchesClient(t *testing.T) {
	srv, c, _ := startServer(t)
	if _, err := c.Deploy(testProgram); err != nil {
		t.Fatal(err)
	}
	pairs := EncodeWritePairs([]MemWriteEntry{{Addr: 1, Value: 7}, {Addr: 200, Value: 9}})
	cases := []struct {
		method string
		params any
		frames [][]byte
	}{
		{MethodPrograms, nil, nil},
		{MethodMemWriteBatch, MemWriteBatchParams{Program: "counter", Mem: "m", Binary: true}, [][]byte{pairs}},
		{MethodMemRead, MemReadParams{Program: "counter", Mem: "m", Addr: 0, Count: 4}, nil},
		{MethodMemReadStream, MemReadStreamParams{Program: "counter", Mem: "m", Count: 256, ChunkWords: 100}, nil},
		{MethodUpgradeStatus, UpgradeNameParams{Program: "counter"}, nil},
		{MethodRevoke, RevokeParams{Name: "ghost"}, nil},
		{"frobnicate", nil, nil},
	}
	requests := srv.cRequests.Value()
	for _, tc := range cases {
		var viaTCP, viaDo json.RawMessage
		tcpFrames, tcpErr := c.Do(context.Background(), tc.method, tc.params, &viaTCP, tc.frames...)
		doFrames, doErr := srv.Do(context.Background(), tc.method, tc.params, &viaDo, tc.frames...)
		if fmt.Sprint(tcpErr) != fmt.Sprint(doErr) {
			t.Fatalf("%s: error over TCP %v, in-process %v", tc.method, tcpErr, doErr)
		}
		var opErr *OpError
		if doErr != nil && !errors.As(doErr, &opErr) {
			t.Fatalf("%s: in-process error %T, want *OpError", tc.method, doErr)
		}
		if string(viaTCP) != string(viaDo) {
			t.Fatalf("%s: result over TCP %s, in-process %s", tc.method, viaTCP, viaDo)
		}
		if fmt.Sprint(tcpFrames) != fmt.Sprint(doFrames) {
			t.Fatalf("%s: %d response frames over TCP, %d in-process", tc.method, len(tcpFrames), len(doFrames))
		}
	}
	if got := srv.cRequests.Value() - requests; got != uint64(len(cases)) {
		t.Fatalf("wire requests counted = %d, want %d (TCP calls only)", got, len(cases))
	}
}
