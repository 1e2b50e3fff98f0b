package fleet

import (
	"fmt"
	"testing"

	"p4runpro/internal/obs/trace"
	"p4runpro/internal/wire"
	"p4runpro/internal/wire/wiretest"
)

const goldenTraceHeader = "0123456789abcdef0123456789abcdef-fedcba9876543210"

// goldenFleet is a two-member fleet behind a wire server, with canned
// member telemetry and no background loops, so every response is a
// function of the requests alone. Members are in-process servers, or with
// tcp set the same servers listening on sockets the fleet dials.
func goldenFleet(t *testing.T, tr *trace.Tracer, fr *trace.FlightRecorder, tcp bool) (*Fleet, *wiretest.Conn) {
	t.Helper()
	f := New(Options{Replicas: 2})
	f.SetTracing(tr, fr)
	for i := 0; i < 2; i++ {
		ct := newLocalMember(t)
		ct.SetTracing(tr, fr)
		s := servesTelemetry(Local(ct), wire.TelemetryProgramsResult{
			Rows:      []wire.TelemetryProgramRow{row("counter", float64(10*(i+1)), uint64(50*(i+1)), 3+i, 2000)},
			SwitchPPS: 40, ForwardedPPS: 30, Sweeps: 5, IntervalMs: 1000,
		})
		var m Member = s
		if tcp {
			m = listenAndDial(t, s)
		}
		if err := f.AddMember(memberName(i), m); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewWireServer(f, nil)
	srv.Tracer, srv.Flight = tr, fr
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return f, wiretest.Dial(t, addr)
}

// TestGoldenFleetVerbs pins the responses of the verbs this package
// registers on a wire server (see internal/wire/golden_test.go for the
// single-switch verbs and the capture format). Both member shapes must
// reproduce the same capture.
func TestGoldenFleetVerbs(t *testing.T) {
	t.Run("in-process", func(t *testing.T) { goldenFleetVerbs(t, false) })
	t.Run("tcp", func(t *testing.T) { goldenFleetVerbs(t, true) })
}

func goldenFleetVerbs(t *testing.T, tcp bool) {
	f, conn := goldenFleet(t, nil, nil, tcp)
	var cp wiretest.Capture
	id := 0
	do := func(name, method, params string) {
		t.Helper()
		id++
		line := fmt.Sprintf(`{"id":%d,"method":%q}`, id, method)
		if params != "" {
			line = fmt.Sprintf(`{"id":%d,"method":%q,"params":%s}`, id, method, params)
		}
		cp.Add(name, conn.Do(line))
	}
	src := func(s string) string { return fmt.Sprintf(`{"source":%q}`, s) }

	do("status/empty", wire.MethodStatus, "")
	do("fleet.deploy", wire.MethodFleetDeploy, src(counterSrc))
	do("fleet.deploy/duplicate", wire.MethodFleetDeploy, src(counterSrc))
	do("fleet.deploy/one-replica", wire.MethodFleetDeploy, fmt.Sprintf(`{"source":%q,"replicas":1}`, dropSrc))
	do("fleet.deploy/parse-error", wire.MethodFleetDeploy, src("program broken("))
	do("fleet.deploy/bad-params", wire.MethodFleetDeploy, `7`)
	do("fleet.programs", wire.MethodFleetPrograms, "")
	do("fleet.members", wire.MethodFleetMembers, "")
	do("fleet.utilization", wire.MethodFleetUtilization, "")
	for i := 0; i < 2; i++ {
		m, _ := f.member(memberName(i))
		if _, err := m.b.Do(ctx, wire.MethodMemWrite, wire.MemWriteParams{Program: "counter", Mem: "m", Addr: 3, Value: 21}, nil); err != nil {
			t.Fatal(err)
		}
	}
	do("fleet.memread/sum", wire.MethodFleetMemRead, `{"program":"counter","mem":"m","addr":2,"count":3}`)
	do("fleet.memread/max-default-count", wire.MethodFleetMemRead, `{"program":"counter","mem":"m","addr":3,"agg":"max"}`)
	do("fleet.memread/bad-agg", wire.MethodFleetMemRead, `{"program":"counter","mem":"m","agg":"avg"}`)
	do("fleet.memread/unknown", wire.MethodFleetMemRead, `{"program":"ghost","mem":"m"}`)
	do("fleet.top", wire.MethodFleetTop, "")
	do("fleet.upgrade", wire.MethodFleetUpgrade, fmt.Sprintf(`{"name":"counter","source":%q,"soak_ms":1,"stage_size":2}`, counterV2Src))
	do("fleet.upgrade/unknown", wire.MethodFleetUpgrade, fmt.Sprintf(`{"name":"ghost","source":%q}`, counterV2Src))
	do("fleet.ops/no-tracer", wire.MethodFleetOps, "")
	do("fleet.ops/slow", wire.MethodFleetOps, `{"slow":true,"verb":"fleet.deploy","limit":1}`)
	do("fleet.revoke", wire.MethodFleetRevoke, `{"name":"counter"}`)
	do("fleet.revoke/again", wire.MethodFleetRevoke, `{"name":"counter"}`)
	do("status/after", wire.MethodStatus, "")
	do("single-switch-verb", wire.MethodDeploy, src(counterSrc))
	do("single-switch-bulk-verb", wire.MethodMemWriteBatch, `{"program":"counter","mem":"m"}`)
	do("unknown-method", "frobnicate", "")
	do("metrics", wire.MethodMetrics, "")
	wiretest.Golden(t, "testdata/fleet_verbs.golden", cp.Bytes())
}

// TestGoldenFleetTraced pins the merged trace view of a traced placement:
// srv.fleet.deploy over lock.wait, footprint and one fanout.<member> per
// replica, each carrying the member controller's apply and link phases.
func TestGoldenFleetTraced(t *testing.T) {
	tr := trace.New(trace.Options{})
	tr.SetEnabled(true)
	_, conn := goldenFleet(t, tr, trace.NewFlightRecorder(64), false)
	var cp wiretest.Capture
	cp.Add("fleet.deploy", conn.Do(fmt.Sprintf(`{"id":1,"method":"fleet.deploy","params":{"source":%q},"tr":%q}`, counterSrc, goldenTraceHeader)))
	cp.Add("fleet.ops", conn.Do(`{"id":2,"method":"fleet.ops"}`))
	cp.Add("debug.flightrec", conn.Do(`{"id":3,"method":"debug.flightrec"}`))
	wiretest.Golden(t, "testdata/fleet_traced.golden", cp.Bytes())
}
