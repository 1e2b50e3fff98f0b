// Golden wire capture: the bytes every typed Client method and Pipeline
// call shape puts on the connection, and the response every server verb
// sends back, compared against files captured before the control plane was
// folded onto one operation path. An external test package on purpose —
// it sees only the exported surface a real peer sees.
package wire_test

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/core"
	"p4runpro/internal/journal"
	"p4runpro/internal/obs"
	"p4runpro/internal/obs/trace"
	"p4runpro/internal/pkt"
	"p4runpro/internal/rmt"
	"p4runpro/internal/wire"
	"p4runpro/internal/wire/wiretest"
)

const goldenCounter = `
@ m 256
program counter(<hdr.ipv4.src, 10.0.0.0, 0xff000000>) {
    LOADI(sar, 1);
    HASH_5_TUPLE_MEM(m);
    MEMADD(m);
}
`

const goldenCache = `
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

const goldenCase = `
case(<har, 1, 0xffffffff>, <sar, 0x9999, 0xffffffff>, <mar, 0, 0xffffffff>) {
    RETURN;
    LOADI(mar, 600);
    MEMREAD(mem1);
    MODIFY(hdr.nc.value, sar);
};`

const goldenFwdV1 = `
@ tbl 128
program fwd(<hdr.ipv4.src, 12.0.0.0, 0xff000000>) {
    LOADI(sar, 1);
    HASH_5_TUPLE_MEM(tbl);
    MEMADD(tbl);
    FORWARD(2);
}
`

const goldenFwdV2 = `
@ tbl 128
program fwd(<hdr.ipv4.src, 12.0.0.0, 0xff000000>) {
    LOADI(sar, 2);
    HASH_5_TUPLE_MEM(tbl);
    MEMADD(tbl);
    FORWARD(3);
}
`

// goldenHuge declares more memory than any RPB holds, so no allocation
// can place it.
const goldenHuge = `
@ huge 131072
program huge(<hdr.ipv4.src, 14.0.0.0, 0xff000000>) {
    LOADI(sar, 1);
    HASH_5_TUPLE_MEM(huge);
    MEMADD(huge);
}
`

// fixedHeader is the span context the traced captures carry.
const fixedHeader = "0123456789abcdef0123456789abcdef-fedcba9876543210"

// canonTraced rewrites a recorded request stream whose span identities are
// random (a call under a live span mints a child per call) onto
// fixedHeader, after checking that every request line carries one. Frames
// are copied as sent: trace identity rides only in the line.
func canonTraced(t *testing.T, b []byte) []byte {
	t.Helper()
	var out []byte
	for len(b) > 0 {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			t.Fatalf("unterminated request line %q", b)
		}
		line := b[:i+1]
		b = b[i+1:]
		var req wire.Request
		if err := json.Unmarshal(line, &req); err != nil {
			t.Fatalf("request line %q: %v", line, err)
		}
		if _, ok := trace.ParseHeader(req.Trace); !ok {
			t.Fatalf("traced call sent no span context: %q", line)
		}
		out = append(out, bytes.Replace(line, []byte(req.Trace), []byte(fixedHeader), 1)...)
		for f := 0; f < req.Frames; f++ {
			_, n, err := wire.DecodeFrame(b, 0)
			if err != nil {
				t.Fatalf("frame %d of %q: %v", f, line, err)
			}
			out = append(out, b[:n]...)
			b = b[n:]
		}
	}
	return out
}

func dialRecorder(t *testing.T, opts ...wire.ClientOption) (*wiretest.Recorder, *wire.Client) {
	t.Helper()
	rec := wiretest.NewRecorder(t)
	c, err := wire.Dial(rec.Addr(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return rec, c
}

func TestGoldenClientRequests(t *testing.T) {
	var cp wiretest.Capture
	rec, c := dialRecorder(t)
	writes := []wire.MemWriteEntry{{Addr: 1, Value: 10}, {Addr: 2, Value: 0xdeadbeef}, {Addr: 10, Value: 10}}
	bg := context.Background()
	// A call under a caller's span (a traced server fanning out) joins
	// that trace, though this client records no spans of its own.
	callerTracer := trace.New(trace.Options{})
	callerTracer.SetEnabled(true)
	underCaller, caller := callerTracer.Start(bg, "test.caller")
	defer caller.End()
	// do makes one call whose result only the recorder sees.
	do := func(ctx context.Context, method string, params any) error {
		_, err := c.Do(ctx, method, params, nil)
		return err
	}

	calls := []struct {
		name string
		call func() error
	}{
		{"Deploy", func() error { _, err := c.Deploy(goldenCounter); return err }},
		{"DeployCtx/untraced", func() error { return do(bg, wire.MethodDeploy, wire.DeployParams{Source: goldenCounter}) }},
		{"DeployCtx/caller-span", func() error { return do(underCaller, wire.MethodDeploy, wire.DeployParams{Source: goldenCounter}) }},
		{"Revoke", func() error { _, err := c.Revoke("counter"); return err }},
		{"Programs", func() error { return do(bg, wire.MethodPrograms, nil) }},
		{"ReadMemory", func() error {
			return do(bg, wire.MethodMemRead, wire.MemReadParams{Program: "counter", Mem: "m", Addr: 4, Count: 16})
		}},
		{"WriteMemory", func() error {
			return do(bg, wire.MethodMemWrite, wire.MemWriteParams{Program: "counter", Mem: "m", Addr: 5, Value: 42})
		}},
		{"Utilization", func() error { return do(bg, wire.MethodUtilization, nil) }},
		{"Inject", func() error { return do(bg, wire.MethodInject, wire.InjectParams{FrameHex: "deadbeef0a", Port: 4}) }},
		{"Status", func() error { _, err := c.Status(); return err }},
		{"AddCases", func() error {
			return do(bg, wire.MethodAddCases, wire.AddCasesParams{Program: "cache", BranchDepth: 4, Source: goldenCase})
		}},
		{"RemoveCase", func() error {
			return do(bg, wire.MethodRemoveCase, wire.RemoveCaseParams{Program: "cache", BranchID: 3})
		}},
		{"Metrics/default", func() error { return do(bg, wire.MethodMetrics, wire.MetricsParams{}) }},
		{"Metrics/json", func() error { return do(bg, wire.MethodMetrics, wire.MetricsParams{Format: wire.MetricsFormatJSON}) }},
		{"SetMulticastGroup", func() error { return do(bg, wire.MethodMcastSet, wire.McastSetParams{Group: 7, Ports: []int{1, 2, 3}}) }},
		{"Snapshot", func() error { return do(bg, wire.MethodSnapshot, nil) }},
		{"UpgradeStart", func() error {
			return do(bg, wire.MethodUpgradeStart, wire.UpgradeStartParams{Program: "fwd", Source: goldenFwdV2})
		}},
		{"UpgradeCutover", func() error {
			return do(bg, wire.MethodUpgradeCutover, wire.UpgradeCutoverParams{Program: "fwd", Version: 2})
		}},
		{"UpgradeCommit", func() error { return do(bg, wire.MethodUpgradeCommit, wire.UpgradeNameParams{Program: "fwd"}) }},
		{"UpgradeAbort", func() error { return do(bg, wire.MethodUpgradeAbort, wire.UpgradeNameParams{Program: "fwd"}) }},
		{"UpgradeStatus", func() error { return do(bg, wire.MethodUpgradeStatus, wire.UpgradeNameParams{Program: "fwd"}) }},
		{"FleetUpgrade", func() error {
			return do(bg, wire.MethodFleetUpgrade, wire.FleetUpgradeParams{Name: "fwd", Source: goldenFwdV2, Canaries: 1,
				StageSize: 2, SoakMs: 50, MaxDropRate: 0.5, MinV2PPS: 1.5})
		}},
		{"FleetDeploy", func() error {
			return do(bg, wire.MethodFleetDeploy, wire.FleetDeployParams{Source: goldenCounter, Replicas: 2})
		}},
		{"FleetRevoke", func() error { return do(bg, wire.MethodFleetRevoke, wire.FleetRevokeParams{Name: "counter"}) }},
		{"FleetPrograms", func() error { return do(bg, wire.MethodFleetPrograms, nil) }},
		{"FleetMembers", func() error { return do(bg, wire.MethodFleetMembers, nil) }},
		{"FleetUtilization", func() error { return do(bg, wire.MethodFleetUtilization, nil) }},
		{"FleetTop", func() error { return do(bg, wire.MethodFleetTop, nil) }},
		{"FleetMemRead", func() error {
			return do(bg, wire.MethodFleetMemRead,
				wire.FleetMemReadParams{Program: "counter", Mem: "m", Addr: 0, Count: 8, Agg: wire.FleetAggMax})
		}},
		{"FleetOps", func() error {
			return do(bg, wire.MethodFleetOps, wire.OpsParams{Slow: true, Verb: "fleet.deploy", Limit: 3})
		}},
		{"TelemetryPrograms", func() error { return do(bg, wire.MethodTelemetryPrograms, nil) }},
		{"TelemetryPostcards", func() error {
			return do(bg, wire.MethodTelemetryPostcards, wire.TelemetryPostcardsParams{Owner: "counter", Limit: 5})
		}},
		{"DebugOps", func() error { return do(bg, wire.MethodDebugOps, wire.OpsParams{Limit: 2}) }},
		{"DebugTrace", func() error {
			return do(bg, wire.MethodDebugTrace, wire.TraceGetParams{ID: "0123456789abcdef0123456789abcdef"})
		}},
		{"DebugFlightrec", func() error { return do(bg, wire.MethodDebugFlightrec, nil) }},
		{"Do/untraced", func() error {
			_, err := c.Do(context.Background(), "x.custom", map[string]int{"n": 1}, nil)
			return err
		}},
		{"Do/caller-span", func() error { _, err := c.Do(underCaller, "x.custom", nil, nil); return err }},
		{"DeployBatch", func() error { _, err := c.DeployBatch([]string{goldenCounter, goldenCache}, false); return err }},
		{"DeployBatch/atomic", func() error { _, err := c.DeployBatch([]string{goldenCounter}, true); return err }},
		{"WriteMemoryBatch", func() error { _, err := c.WriteMemoryBatch("counter", "m", writes); return err }},
		{"ReadMemoryBulk", func() error { _, err := c.ReadMemoryBulk("counter", "m", 0, 256); return err }},
		{"Pipeline", func() error {
			p := c.Pipeline()
			p.Call(wire.MethodStatus, nil, nil)
			p.Call(wire.MethodRevoke, wire.RevokeParams{Name: "counter"}, nil)
			p.Enqueue(bg, wire.MethodDeploy, wire.DeployParams{Source: goldenCounter}, nil, nil)
			p.Enqueue(bg, wire.MethodMemWriteBatch,
				wire.MemWriteBatchParams{Program: "counter", Mem: "m"}, nil,
				[][]byte{wire.EncodeWritePairs(writes)})
			p.Enqueue(bg, wire.MethodMemWriteBatch,
				wire.MemWriteBatchParams{Program: "counter", Mem: "m"}, nil,
				[][]byte{wire.EncodeWritePairs(writes[:1]), {}})
			return p.Flush()
		}},
	}
	for _, tc := range calls {
		if err := tc.call(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := rec.Take()
		if strings.HasSuffix(tc.name, "/caller-span") {
			got = canonTraced(t, got)
		}
		cp.Add(tc.name, got)
	}

	// A tracer-enabled client mints a span per call and stamps it into the
	// request line.
	tr := trace.New(trace.Options{})
	tr.SetEnabled(true)
	trec, tc := dialRecorder(t, wire.WithTracer(tr))
	parentCtx, parent := tr.Start(context.Background(), "test.parent")
	traced := []struct {
		name string
		call func() error
	}{
		{"traced/Deploy", func() error { _, err := tc.Deploy(goldenCounter); return err }},
		{"traced/DeployCtx/local-parent", func() error {
			_, err := tc.Do(parentCtx, wire.MethodDeploy, wire.DeployParams{Source: goldenCounter}, nil)
			return err
		}},
		{"traced/WriteMemoryBatch", func() error { _, err := tc.WriteMemoryBatch("counter", "m", writes); return err }},
		{"traced/Pipeline", func() error {
			p := tc.Pipeline()
			p.Call(wire.MethodStatus, nil, nil)
			p.Enqueue(parentCtx, wire.MethodMemWriteBatch,
				wire.MemWriteBatchParams{Program: "counter", Mem: "m"}, nil,
				[][]byte{wire.EncodeWritePairs(writes)})
			return p.Flush()
		}},
	}
	for _, c := range traced {
		if err := c.call(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		cp.Add(c.name, canonTraced(t, trec.Take()))
	}
	parent.End()
	wiretest.Golden(t, "testdata/client_requests.golden", cp.Bytes())
}

// singleSwitchVerbs is every verb NewServer registers for a controller —
// the set a bare (fleet-mode) server must answer with the "needs a
// single-switch daemon" direction instead of "unknown method".
var singleSwitchVerbs = []string{
	wire.MethodDeploy, wire.MethodRevoke, wire.MethodPrograms, wire.MethodMemRead, wire.MethodMemWrite,
	wire.MethodUtilization, wire.MethodInject, wire.MethodStatus, wire.MethodAddCases, wire.MethodRemoveCase,
	wire.MethodMcastSet, wire.MethodSnapshot, wire.MethodUpgradeStart, wire.MethodUpgradeCutover,
	wire.MethodUpgradeCommit, wire.MethodUpgradeAbort, wire.MethodUpgradeStatus,
	wire.MethodDeployBatch, wire.MethodMemWriteBatch, wire.MethodMemReadStream, wire.MethodDeployPlan,
}

func journaledController(t *testing.T, tr *trace.Tracer, fr *trace.FlightRecorder) *controlplane.Controller {
	t.Helper()
	ct, err := controlplane.RecoverWithTracing(t.TempDir(), rmt.DefaultConfig(), core.DefaultOptions(),
		journal.Options{Sync: journal.SyncNone}, tr, fr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ct.Journal().Close() })
	return ct
}

func listen(t *testing.T, srv *wire.Server) *wiretest.Conn {
	t.Helper()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return wiretest.Dial(t, addr)
}

func reqLine(id int, method string, params any) string {
	req := wire.Request{ID: int64(id), Method: method}
	if params != nil {
		raw, err := json.Marshal(params)
		if err != nil {
			panic(err)
		}
		req.Params = raw
	}
	b, err := json.Marshal(&req)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func TestGoldenServerResponses(t *testing.T) {
	var cp wiretest.Capture
	conn := listen(t, wire.NewServer(journaledController(t, nil, nil), nil))
	id := 0
	do := func(name, method string, params any) {
		t.Helper()
		id++
		cp.Add(name, conn.Do(reqLine(id, method, params)))
	}
	// framed sends one request whose payload rides in one binary frame.
	framed := func(name, method string, params any, payload []byte) {
		t.Helper()
		id++
		line := mustJSON(&wire.Request{ID: int64(id), Method: method, Params: mustJSON(params), Frames: 1})
		cp.Add(name, conn.Do(string(line), wire.AppendFrame(nil, payload)))
	}
	raw := func(name, line string) {
		t.Helper()
		cp.Add(name, conn.Do(line))
	}
	flow := pkt.FiveTuple{SrcIP: pkt.IP(10, 1, 2, 3), DstIP: 9, SrcPort: 1, DstPort: 2, Proto: pkt.ProtoUDP}

	do("status/empty", wire.MethodStatus, nil)
	do("deploy", wire.MethodDeploy, wire.DeployParams{Source: goldenCounter})
	do("deploy/parse-error", wire.MethodDeploy, wire.DeployParams{Source: "program broken("})
	do("deploy/duplicate", wire.MethodDeploy, wire.DeployParams{Source: goldenCounter})
	raw("deploy/bad-params", `{"id":900,"method":"deploy","params":5}`)
	do("programs", wire.MethodPrograms, nil)
	do("utilization", wire.MethodUtilization, nil)
	do("mem.write", wire.MethodMemWrite, wire.MemWriteParams{Program: "counter", Mem: "m", Addr: 5, Value: 42})
	do("mem.write/bad-addr", wire.MethodMemWrite, wire.MemWriteParams{Program: "counter", Mem: "m", Addr: 9999, Value: 1})
	do("mem.read/default-count", wire.MethodMemRead, wire.MemReadParams{Program: "counter", Mem: "m", Addr: 5})
	do("mem.read/range", wire.MethodMemRead, wire.MemReadParams{Program: "counter", Mem: "m", Addr: 4, Count: 4})
	do("mem.read/unknown-program", wire.MethodMemRead, wire.MemReadParams{Program: "ghost", Mem: "m"})
	framed("mem.writebatch", wire.MethodMemWriteBatch, wire.MemWriteBatchParams{Program: "counter", Mem: "m"},
		wire.EncodeWritePairs([]wire.MemWriteEntry{{Addr: 7, Value: 70}, {Addr: 8, Value: 80}}))
	raw("mem.writebatch/no-frame", `{"id":902,"method":"mem.writebatch","params":{"program":"counter","mem":"m"}}`)
	framed("mem.writebatch/bad-addr", wire.MethodMemWriteBatch, wire.MemWriteBatchParams{Program: "counter", Mem: "m"},
		wire.EncodeWritePairs([]wire.MemWriteEntry{{Addr: 1, Value: 1}, {Addr: 4096, Value: 2}}))
	do("mem.readstream", wire.MethodMemReadStream, wire.MemReadStreamParams{Program: "counter", Mem: "m", Addr: 4, Count: 8})
	do("mem.readstream/too-many-chunks", wire.MethodMemReadStream, wire.MemReadStreamParams{Program: "counter", Mem: "m", Count: 1 << 25})
	do("inject", wire.MethodInject, wire.InjectParams{FrameHex: hex.EncodeToString(pkt.NewUDP(flow, 100).Marshal()), Port: 4})
	do("inject/bad-hex", wire.MethodInject, wire.InjectParams{FrameHex: "zz", Port: 4})
	do("deploy/cache", wire.MethodDeploy, wire.DeployParams{Source: goldenCache})
	do("case.add", wire.MethodAddCases, wire.AddCasesParams{Program: "cache", BranchDepth: 4, Source: goldenCase})
	do("case.add/unknown-program", wire.MethodAddCases, wire.AddCasesParams{Program: "ghost", BranchDepth: 4, Source: goldenCase})
	do("case.remove", wire.MethodRemoveCase, wire.RemoveCaseParams{Program: "cache", BranchID: 2})
	do("case.remove/again", wire.MethodRemoveCase, wire.RemoveCaseParams{Program: "cache", BranchID: 2})
	do("mcast.set", wire.MethodMcastSet, wire.McastSetParams{Group: 7, Ports: []int{1, 2, 3}})
	do("deploy.batch", wire.MethodDeployBatch, wire.DeployBatchParams{Sources: []string{goldenFwdV1, "program broken(", goldenCounter}})
	do("deploy.batch/atomic-failure", wire.MethodDeployBatch, wire.DeployBatchParams{Sources: []string{
		"program solo(<hdr.ipv4.src, 13.0.0.0, 0xff000000>) { DROP; }", "program broken("}, Atomic: true})
	do("deploy.batch/empty", wire.MethodDeployBatch, wire.DeployBatchParams{})
	do("upgrade.status/none", wire.MethodUpgradeStatus, wire.UpgradeNameParams{Program: "fwd"})
	do("upgrade.start", wire.MethodUpgradeStart, wire.UpgradeStartParams{Program: "fwd", Source: goldenFwdV2})
	do("upgrade.start/in-flight", wire.MethodUpgradeStart, wire.UpgradeStartParams{Program: "fwd", Source: goldenFwdV2})
	do("revoke/upgrade-in-flight", wire.MethodRevoke, wire.RevokeParams{Name: "fwd"})
	do("upgrade.cutover", wire.MethodUpgradeCutover, wire.UpgradeCutoverParams{Program: "fwd", Version: 2})
	do("upgrade.cutover/bad-version", wire.MethodUpgradeCutover, wire.UpgradeCutoverParams{Program: "fwd", Version: 3})
	do("upgrade.status", wire.MethodUpgradeStatus, wire.UpgradeNameParams{Program: "fwd"})
	do("upgrade.commit", wire.MethodUpgradeCommit, wire.UpgradeNameParams{Program: "fwd"})
	do("upgrade.start/second", wire.MethodUpgradeStart, wire.UpgradeStartParams{Program: "fwd", Source: goldenFwdV1})
	do("upgrade.abort", wire.MethodUpgradeAbort, wire.UpgradeNameParams{Program: "fwd"})
	do("upgrade.abort/again", wire.MethodUpgradeAbort, wire.UpgradeNameParams{Program: "fwd"})
	do("snapshot", wire.MethodSnapshot, nil)
	do("programs/after", wire.MethodPrograms, nil)
	do("status/after", wire.MethodStatus, nil)
	do("metrics/default", wire.MethodMetrics, nil)
	do("metrics/json", wire.MethodMetrics, wire.MetricsParams{Format: wire.MetricsFormatJSON})
	do("metrics/bad-format", wire.MethodMetrics, wire.MetricsParams{Format: "xml"})
	do("revoke", wire.MethodRevoke, wire.RevokeParams{Name: "counter"})
	do("revoke/again", wire.MethodRevoke, wire.RevokeParams{Name: "counter"})
	do("unknown-method", "frobnicate", nil)
	do("fleet-verb-on-single-switch", wire.MethodFleetDeploy, wire.FleetDeployParams{Source: goldenCounter})
	do("telemetry-verb-unregistered", wire.MethodTelemetryPrograms, nil)
	raw("malformed-json", `{"id":7,"method":`)
	raw("empty-method", `{"id":8}`)
	do("debug.ops/no-tracer", wire.MethodDebugOps, nil)
	do("debug.trace/no-tracer", wire.MethodDebugTrace, wire.TraceGetParams{ID: "0123456789abcdef0123456789abcdef"})
	do("debug.trace/bad-id", wire.MethodDebugTrace, wire.TraceGetParams{ID: "nope"})
	do("debug.flightrec/no-recorder", wire.MethodDebugFlightrec, nil)
	do("deploy.plan", wire.MethodDeployPlan, wire.DeployParams{Source: goldenCounter +
		"program solo(<hdr.ipv4.src, 13.0.0.0, 0xff000000>) { DROP; }"})
	do("deploy.plan/parse-error", wire.MethodDeployPlan, wire.DeployParams{Source: "program broken("})
	do("deploy.plan/duplicate", wire.MethodDeployPlan, wire.DeployParams{Source: goldenFwdV1})
	do("deploy.plan/infeasible", wire.MethodDeployPlan, wire.DeployParams{Source: goldenHuge})
	// A frame-count violation is answered, then the connection closes.
	raw("bad-frame-count", `{"id":9,"method":"mem.writebatch","frames":-1}`)
	wiretest.Golden(t, "testdata/server_responses.golden", cp.Bytes())
}

// TestGoldenServerTraced pins the debug verbs' view of a traced, journaled
// daemon: span names and nesting (srv.<verb>, srv.decode, lock.wait,
// journal.commit, apply and the compiler's phases beneath it) and the
// flight recorder's events, for the verbs whose trace shape the refactor
// must leave untouched.
func TestGoldenServerTraced(t *testing.T) {
	var cp wiretest.Capture
	tr := trace.New(trace.Options{})
	tr.SetEnabled(true)
	fr := trace.NewFlightRecorder(64)
	srv := wire.NewServer(journaledController(t, tr, fr), nil)
	srv.Tracer, srv.Flight = tr, fr
	conn := listen(t, srv)
	id := 0
	do := func(name, method string, params any) {
		t.Helper()
		id++
		cp.Add(name, conn.Do(reqLine(id, method, params)))
	}
	cp.Add("deploy/joins-caller-trace", conn.Do(
		fmt.Sprintf(`{"id":100,"method":"deploy","params":%s,"tr":%q}`, mustJSON(wire.DeployParams{Source: goldenFwdV1}), fixedHeader)))
	do("deploy/parse-error", wire.MethodDeploy, wire.DeployParams{Source: "program broken("})
	do("deploy.batch", wire.MethodDeployBatch, wire.DeployBatchParams{Sources: []string{goldenCounter, "program broken("}})
	// A bulk write joins the caller's trace through the line's "tr"; its
	// frame carries only the pairs.
	cp.Add("mem.writebatch/joins-caller-trace", conn.Do(
		fmt.Sprintf(`{"id":101,"method":"mem.writebatch","params":{"program":"counter","mem":"m"},"frames":1,"tr":%q}`, fixedHeader),
		wire.AppendFrame(nil, wire.EncodeWritePairs([]wire.MemWriteEntry{{Addr: 3, Value: 30}}))))
	do("upgrade.start", wire.MethodUpgradeStart, wire.UpgradeStartParams{Program: "fwd", Source: goldenFwdV2})
	do("upgrade.cutover", wire.MethodUpgradeCutover, wire.UpgradeCutoverParams{Program: "fwd", Version: 2})
	do("upgrade.commit", wire.MethodUpgradeCommit, wire.UpgradeNameParams{Program: "fwd"})
	do("upgrade.abort/no-session", wire.MethodUpgradeAbort, wire.UpgradeNameParams{Program: "counter"})
	do("revoke", wire.MethodRevoke, wire.RevokeParams{Name: "counter"})
	do("revoke/again", wire.MethodRevoke, wire.RevokeParams{Name: "counter"})
	do("programs", wire.MethodPrograms, nil)
	do("debug.trace", wire.MethodDebugTrace, wire.TraceGetParams{ID: fixedHeader[:32]})
	do("debug.ops", wire.MethodDebugOps, nil)
	do("debug.ops/limit", wire.MethodDebugOps, wire.OpsParams{Limit: 2})
	do("debug.flightrec", wire.MethodDebugFlightrec, nil)
	wiretest.Golden(t, "testdata/server_traced.golden", cp.Bytes())
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// TestGoldenBareServer pins what a server without a controller (the fleet
// daemon's shape) answers: the single-switch verbs point the caller at a
// single-switch daemon, everything else unregistered is unknown, and the
// metrics and debug verbs are served regardless.
func TestGoldenBareServer(t *testing.T) {
	var cp wiretest.Capture
	conn := listen(t, wire.NewBareServer(obs.NewRegistry(), nil))
	for i, m := range singleSwitchVerbs {
		cp.Add(m, conn.Do(reqLine(i+1, m, nil)))
	}
	cp.Add("unknown-method", conn.Do(reqLine(50, "frobnicate", nil)))
	cp.Add("fleet-verb-unregistered", conn.Do(reqLine(51, wire.MethodFleetPrograms, nil)))
	cp.Add("metrics", conn.Do(reqLine(52, wire.MethodMetrics, nil)))
	cp.Add("debug.ops", conn.Do(reqLine(53, wire.MethodDebugOps, nil)))
	cp.Add("debug.flightrec", conn.Do(reqLine(54, wire.MethodDebugFlightrec, nil)))
	wiretest.Golden(t, "testdata/bare_server.golden", cp.Bytes())
}
