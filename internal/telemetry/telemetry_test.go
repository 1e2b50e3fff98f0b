package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/core"
	"p4runpro/internal/pkt"
	"p4runpro/internal/rmt"
	"p4runpro/internal/wire"
)

// Two single-pass forwarders with disjoint destination filters: every packet
// sent to 10.1/16 is attributed to ta, every packet to 10.2/16 to tb, and
// both forward — so the per-program pps rows must sum to the switch-wide
// forwarded pps exactly (sweeps share one timestamp).
const (
	progA = `
program ta(<hdr.ipv4.dst, 10.1.0.0, 0xffff0000>) {
    FORWARD(1);
}
`
	progB = `
program tb(<hdr.ipv4.dst, 10.2.0.0, 0xffff0000>) {
    FORWARD(2);
}
`
)

func newController(t testing.TB) *controlplane.Controller {
	t.Helper()
	ct, err := controlplane.New(rmt.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		t.Fatalf("controlplane.New: %v", err)
	}
	return ct
}

func deploy(t testing.TB, ct *controlplane.Controller, src string) {
	t.Helper()
	if _, err := ct.Deploy(src); err != nil {
		t.Fatalf("deploy: %v\nsource:\n%s", err, src)
	}
}

// udpTo builds a UDP packet destined to dst with a varying source port.
func udpTo(dst uint32, srcPort uint16) *pkt.Packet {
	return pkt.NewUDP(pkt.FiveTuple{
		SrcIP: pkt.IP(192, 0, 2, 1), DstIP: dst,
		SrcPort: srcPort, DstPort: 7777, Proto: pkt.ProtoUDP,
	}, 128)
}

// TestTopSumsToSwitchRate is the issue's acceptance check: with two deployed
// programs whose filters partition the injected traffic, the per-program pps
// reported by the sweep engine sums to the switch-wide forwarded pps.
func TestTopSumsToSwitchRate(t *testing.T) {
	ct := newController(t)
	deploy(t, ct, progA)
	deploy(t, ct, progB)
	eng := New(ct, Options{Interval: time.Hour}) // swept manually

	eng.Sweep() // baseline sample at zero traffic
	for i := 0; i < 300; i++ {
		if r := ct.SW.Inject(udpTo(pkt.IP(10, 1, 0, byte(i)), uint16(1000+i)), 3); r.Verdict != rmt.VerdictForwarded {
			t.Fatalf("packet %d to ta: verdict %v, want forwarded", i, r.Verdict)
		}
	}
	for i := 0; i < 100; i++ {
		if r := ct.SW.Inject(udpTo(pkt.IP(10, 2, 0, byte(i)), uint16(2000+i)), 3); r.Verdict != rmt.VerdictForwarded {
			t.Fatalf("packet %d to tb: verdict %v, want forwarded", i, r.Verdict)
		}
	}
	time.Sleep(5 * time.Millisecond) // ensure a nonzero window span
	eng.Sweep()

	res := eng.Result()
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2: %+v", len(res.Rows), res.Rows)
	}
	// Sorted by descending pps: ta (300 packets) leads tb (100).
	if res.Rows[0].Program != "ta" || res.Rows[1].Program != "tb" {
		t.Fatalf("row order = %s, %s; want ta, tb", res.Rows[0].Program, res.Rows[1].Program)
	}
	if res.Rows[0].PacketHits != 300 || res.Rows[1].PacketHits != 100 {
		t.Fatalf("packet hits = %d, %d; want 300, 100",
			res.Rows[0].PacketHits, res.Rows[1].PacketHits)
	}
	if res.ForwardedPPS <= 0 || res.SwitchPPS <= 0 {
		t.Fatalf("switch rates not positive: pps=%v fwd=%v", res.SwitchPPS, res.ForwardedPPS)
	}
	sum := res.Rows[0].PPS + res.Rows[1].PPS
	if rel := (sum - res.ForwardedPPS) / res.ForwardedPPS; rel > 1e-9 || rel < -1e-9 {
		t.Fatalf("per-program pps sum %v != forwarded pps %v (rel err %v)",
			sum, res.ForwardedPPS, rel)
	}
	// Every injected packet matched a program and was forwarded, so the
	// injection rate equals the forwarded rate too.
	if res.SwitchPPS != res.ForwardedPPS {
		t.Fatalf("switch pps %v != forwarded pps %v", res.SwitchPPS, res.ForwardedPPS)
	}
	// Hit ratios share the same time base, so they are exact shares.
	if r := res.Rows[0].HitRatio; r < 0.7499 || r > 0.7501 {
		t.Fatalf("ta hit ratio = %v, want 0.75", r)
	}
	if res.Sweeps != 2 {
		t.Fatalf("sweeps = %d, want 2", res.Sweeps)
	}
	if res.Rows[0].WindowMs <= 0 || res.Rows[0].Samples != 2 {
		t.Fatalf("window bookkeeping off: samples=%d windowMs=%d",
			res.Rows[0].Samples, res.Rows[0].WindowMs)
	}
}

// TestProgramGaugesRegistered: sweeping a deployed program installs its
// labelled scrape-time gauges next to the switch-wide ones.
func TestProgramGaugesRegistered(t *testing.T) {
	ct := newController(t)
	deploy(t, ct, progA)
	eng := New(ct, Options{Interval: time.Hour})
	eng.Sweep()
	for i := 0; i < 64; i++ {
		ct.SW.Inject(udpTo(pkt.IP(10, 1, 9, byte(i)), uint16(i)), 0)
	}
	time.Sleep(2 * time.Millisecond)
	eng.Sweep()

	body := ct.Obs.Prometheus()
	for _, want := range []string{
		`p4runpro_program_pps{program="ta"}`,
		`p4runpro_program_hit_ratio{program="ta"}`,
		`p4runpro_program_mem_words{program="ta"}`,
		`p4runpro_program_mem_growth_wps{program="ta"}`,
		"p4runpro_switch_pps",
		"p4runpro_switch_forwarded_pps",
		"p4runpro_telemetry_sweeps_total 2",
		"p4runpro_rmt_postcards_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestPruneAfterRevoke: a revoked program's row disappears after the grace
// period and its (permanently registered) gauges read zero.
func TestPruneAfterRevoke(t *testing.T) {
	ct := newController(t)
	deploy(t, ct, progA)
	eng := New(ct, Options{Interval: time.Hour})
	eng.Sweep()
	if _, err := ct.Revoke("ta"); err != nil {
		t.Fatalf("revoke: %v", err)
	}
	for i := 0; i < pruneAfter; i++ {
		eng.Sweep()
		if i < pruneAfter-1 {
			if len(eng.Result().Rows) != 1 {
				t.Fatalf("sweep %d: row pruned before the grace period", i+1)
			}
		}
	}
	if rows := eng.Result().Rows; len(rows) != 0 {
		t.Fatalf("rows after prune = %+v, want none", rows)
	}
	if !strings.Contains(ct.Obs.Prometheus(), `p4runpro_program_pps{program="ta"} 0`) {
		t.Fatalf("pruned program's gauge should read 0:\n%s", ct.Obs.Prometheus())
	}
}

// TestRedeployResetsWindow: revoke+redeploy under the same name restarts the
// counters; the engine must reset the window instead of reporting a negative
// rate against stale samples.
func TestRedeployResetsWindow(t *testing.T) {
	ct := newController(t)
	deploy(t, ct, progA)
	eng := New(ct, Options{Interval: time.Hour})
	eng.Sweep()
	for i := 0; i < 200; i++ {
		ct.SW.Inject(udpTo(pkt.IP(10, 1, 2, byte(i)), uint16(i)), 0)
	}
	time.Sleep(2 * time.Millisecond)
	eng.Sweep()
	if _, err := ct.Revoke("ta"); err != nil {
		t.Fatalf("revoke: %v", err)
	}
	deploy(t, ct, progA)
	time.Sleep(2 * time.Millisecond)
	eng.Sweep()
	res := eng.Result()
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	row := res.Rows[0]
	if row.PPS < 0 {
		t.Fatalf("pps went negative after redeploy: %v", row.PPS)
	}
	if row.Samples != 1 {
		t.Fatalf("window not reset on redeploy: %d samples", row.Samples)
	}
	if row.PacketHits != 0 {
		t.Fatalf("fresh deployment reports %d packet hits", row.PacketHits)
	}
}

// TestPostcardsResult: the engine's postcard view carries the sampling
// config, flow/verdict strings, and per-hop ownership; the owner filter and
// limit are honored.
func TestPostcardsResult(t *testing.T) {
	ct := newController(t)
	deploy(t, ct, progA)
	deploy(t, ct, progB)
	ct.SW.EnablePostcards(1, 32) // sample everything
	eng := New(ct, Options{Interval: time.Hour})

	for i := 0; i < 6; i++ {
		ct.SW.Inject(udpTo(pkt.IP(10, 1, 0, byte(i)), uint16(100+i)), 3)
	}
	for i := 0; i < 4; i++ {
		ct.SW.Inject(udpTo(pkt.IP(10, 2, 0, byte(i)), uint16(200+i)), 3)
	}

	res := eng.Postcards("", 0)
	if res.Every != 1 {
		t.Fatalf("every = %d, want 1", res.Every)
	}
	if res.Count != 10 || len(res.Postcards) != 10 {
		t.Fatalf("count=%d postcards=%d, want 10/10", res.Count, len(res.Postcards))
	}
	pc := res.Postcards[0]
	if pc.Verdict != "forwarded" {
		t.Fatalf("verdict = %q, want forwarded", pc.Verdict)
	}
	if pc.Flow == "" || pc.Passes < 1 || len(pc.Hops) == 0 {
		t.Fatalf("postcard missing detail: %+v", pc)
	}
	owned := false
	for _, h := range pc.Hops {
		if h.Owner != "" {
			owned = true
		}
		if h.Table == "" || h.Gress == "" {
			t.Fatalf("hop missing table/gress: %+v", h)
		}
	}
	if !owned {
		t.Fatalf("no hop attributed to a program: %+v", pc.Hops)
	}

	forB := eng.Postcards("tb", 0)
	if len(forB.Postcards) != 4 {
		t.Fatalf("owner filter returned %d postcards, want 4", len(forB.Postcards))
	}
	for _, pc := range forB.Postcards {
		found := false
		for _, h := range pc.Hops {
			if h.Owner == "tb" {
				found = true
			}
		}
		if !found {
			t.Fatalf("filtered postcard lacks tb hop: %+v", pc)
		}
	}
	if got := eng.Postcards("", 3); len(got.Postcards) != 3 {
		t.Fatalf("limit 3 returned %d postcards", len(got.Postcards))
	}
}

// TestStartStop: the background sweeper takes samples on its own and Stop is
// idempotent.
func TestStartStop(t *testing.T) {
	ct := newController(t)
	deploy(t, ct, progA)
	eng := New(ct, Options{Interval: 2 * time.Millisecond})
	eng.Start()
	deadline := time.Now().Add(2 * time.Second)
	for eng.sweeps.Load() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("sweeper made %d sweeps in 2s", eng.sweeps.Load())
		}
		time.Sleep(time.Millisecond)
	}
	eng.Stop()
	eng.Stop() // must not panic or hang
	n := eng.sweeps.Load()
	time.Sleep(10 * time.Millisecond)
	if eng.sweeps.Load() != n {
		t.Fatalf("sweeper still running after Stop")
	}
}

// startWireServer brings up a wire server with the telemetry verbs
// registered, plus a connected typed client.
func startWireServer(t *testing.T, ct *controlplane.Controller, eng *Engine) (string, *wire.Client) {
	t.Helper()
	srv := wire.NewServer(ct, nil)
	RegisterWire(srv, eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return addr, c
}

// TestWireRoundTrip: both telemetry verbs survive the wire as typed
// wire.Call results, matching the engine's local view.
func TestWireRoundTrip(t *testing.T) {
	ct := newController(t)
	deploy(t, ct, progA)
	ct.SW.EnablePostcards(1, 16)
	eng := New(ct, Options{Interval: time.Hour})
	_, c := startWireServer(t, ct, eng)

	ctx := context.Background()
	eng.Sweep()
	for i := 0; i < 50; i++ {
		ct.SW.Inject(udpTo(pkt.IP(10, 1, 1, byte(i)), uint16(i)), 2)
	}
	time.Sleep(2 * time.Millisecond)
	eng.Sweep()

	progs, err := wire.Call[wire.TelemetryProgramsResult](ctx, c, wire.MethodTelemetryPrograms, nil)
	if err != nil {
		t.Fatalf("telemetry.programs: %v", err)
	}
	if len(progs.Rows) != 1 || progs.Rows[0].Program != "ta" {
		t.Fatalf("rows over wire = %+v", progs.Rows)
	}
	if progs.Rows[0].PacketHits != 50 || progs.Rows[0].PPS <= 0 {
		t.Fatalf("row lost detail over wire: %+v", progs.Rows[0])
	}
	if progs.Sweeps != 2 || progs.IntervalMs != time.Hour.Milliseconds() {
		t.Fatalf("result metadata: sweeps=%d intervalMs=%d", progs.Sweeps, progs.IntervalMs)
	}

	pcs, err := wire.Call[wire.TelemetryPostcardsResult](ctx, c, wire.MethodTelemetryPostcards, wire.TelemetryPostcardsParams{Limit: 5})
	if err != nil {
		t.Fatalf("telemetry.postcards: %v", err)
	}
	if pcs.Every != 1 || len(pcs.Postcards) != 5 {
		t.Fatalf("postcards over wire: every=%d n=%d", pcs.Every, len(pcs.Postcards))
	}
	if pcs.Postcards[0].Verdict != "forwarded" || len(pcs.Postcards[0].Hops) == 0 {
		t.Fatalf("postcard lost detail over wire: %+v", pcs.Postcards[0])
	}
	// Owner filter crosses the wire too.
	none, err := wire.Call[wire.TelemetryPostcardsResult](ctx, c, wire.MethodTelemetryPostcards, wire.TelemetryPostcardsParams{Owner: "nosuch"})
	if err != nil {
		t.Fatalf("filtered postcards: %v", err)
	}
	if len(none.Postcards) != 0 {
		t.Fatalf("filter for unknown owner returned %d postcards", len(none.Postcards))
	}
}

// TestWireTruncatedParams: a request whose params JSON is cut off mid-object
// gets an error response, and the connection keeps serving.
func TestWireTruncatedParams(t *testing.T) {
	ct := newController(t)
	eng := New(ct, Options{Interval: time.Hour})
	addr, _ := startWireServer(t, ct, eng)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(`{"id":1,"method":"telemetry.postcards","params":{"owner":"t` + "\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	dec := json.NewDecoder(conn)
	var first wire.Response
	if err := dec.Decode(&first); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if first.Error == "" {
		t.Fatalf("truncated params accepted: %+v", first)
	}
	// Same connection, valid request: the server must still answer.
	if _, err := conn.Write([]byte(`{"id":2,"method":"telemetry.programs"}` + "\n")); err != nil {
		t.Fatalf("write 2: %v", err)
	}
	var second wire.Response
	if err := dec.Decode(&second); err != nil {
		t.Fatalf("decode 2: %v", err)
	}
	if second.Error != "" || second.ID != 2 {
		t.Fatalf("follow-up request failed: %+v", second)
	}
}

// TestWireOversizedRequest: a telemetry request exceeding the server's
// request-size bound is rejected with ErrRequestTooLarge.
func TestWireOversizedRequest(t *testing.T) {
	ct := newController(t)
	eng := New(ct, Options{Interval: time.Hour})
	srv := wire.NewServer(ct, nil)
	srv.MaxRequestBytes = 1 << 10
	RegisterWire(srv, eng)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	req := `{"id":1,"method":"telemetry.postcards","params":{"owner":"` +
		strings.Repeat("x", 4<<10) + `"}}` + "\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatalf("write: %v", err)
	}
	var resp wire.Response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.Error != wire.ErrRequestTooLarge.Error() {
		t.Fatalf("oversized request: error = %q, want %q", resp.Error, wire.ErrRequestTooLarge)
	}
}

// TestHTTPHandler drives the metrics endpoint: Prometheus text on /metrics,
// liveness on /healthz, and the JSON scrape on /telemetry with owner/limit
// filtering.
func TestHTTPHandler(t *testing.T) {
	ct := newController(t)
	deploy(t, ct, progA)
	ct.SW.EnablePostcards(1, 16)
	eng := New(ct, Options{Interval: time.Hour})
	eng.Sweep()
	for i := 0; i < 20; i++ {
		ct.SW.Inject(udpTo(pkt.IP(10, 1, 3, byte(i)), uint16(i)), 1)
	}
	time.Sleep(2 * time.Millisecond)
	eng.Sweep()

	ts := httptest.NewServer(Handler(ct.Obs, eng))
	defer ts.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read %s: %v", path, err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/metrics")
	if code != 200 || !strings.Contains(ctype, "text/plain") {
		t.Fatalf("/metrics: code=%d type=%q", code, ctype)
	}
	for _, want := range []string{"p4runpro_rmt_packets_total", `p4runpro_program_pps{program="ta"}`} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	if code, body, _ := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz: code=%d body=%q", code, body)
	}

	code, body, ctype = get("/telemetry")
	if code != 200 || !strings.Contains(ctype, "application/json") {
		t.Fatalf("/telemetry: code=%d type=%q", code, ctype)
	}
	var scrape struct {
		Programs  wire.TelemetryProgramsResult  `json:"programs"`
		Postcards wire.TelemetryPostcardsResult `json:"postcards"`
	}
	if err := json.Unmarshal([]byte(body), &scrape); err != nil {
		t.Fatalf("/telemetry not JSON: %v\n%s", err, body)
	}
	if len(scrape.Programs.Rows) != 1 || scrape.Programs.Rows[0].Program != "ta" {
		t.Fatalf("/telemetry rows = %+v", scrape.Programs.Rows)
	}
	if len(scrape.Postcards.Postcards) == 0 {
		t.Fatalf("/telemetry returned no postcards")
	}

	if _, body, _ := get("/telemetry?owner=nosuch&limit=2"); !strings.Contains(body, `"postcards"`) {
		t.Fatalf("/telemetry filter response malformed: %s", body)
	}

	// Without an engine (the fleet daemon's registry-only endpoint),
	// /telemetry is a 404 but /metrics still serves.
	bare := httptest.NewServer(Handler(ct.Obs, nil))
	defer bare.Close()
	resp, err := bare.Client().Get(bare.URL + "/telemetry")
	if err != nil {
		t.Fatalf("bare GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("bare /telemetry code = %d, want 404", resp.StatusCode)
	}
	resp, err = bare.Client().Get(bare.URL + "/metrics")
	if err != nil {
		t.Fatalf("bare /metrics: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("bare /metrics code = %d", resp.StatusCode)
	}
}
