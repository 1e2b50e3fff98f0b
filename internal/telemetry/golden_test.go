package telemetry

import (
	"testing"
	"time"

	"p4runpro/internal/pkt"
	"p4runpro/internal/wire"
	"p4runpro/internal/wire/wiretest"
)

// TestGoldenTelemetryVerbs pins the responses of the verbs this package
// registers on a wire server (see internal/wire/golden_test.go for the
// single-switch verbs and the capture format).
func TestGoldenTelemetryVerbs(t *testing.T) {
	ct := newController(t)
	deploy(t, ct, progA)
	deploy(t, ct, progB)
	ct.SW.EnablePostcards(1, 8)
	eng := New(ct, Options{Interval: time.Hour})
	addr, _ := startWireServer(t, ct, eng)
	for i := 0; i < 3; i++ {
		ct.SW.Inject(udpTo(pkt.IP(10, 1, 0, byte(i)), uint16(100+i)), 3)
	}
	ct.SW.Inject(udpTo(pkt.IP(10, 2, 0, 1), 200), 3)
	eng.Sweep()

	conn := wiretest.Dial(t, addr)
	var cp wiretest.Capture
	cp.Add("telemetry.programs", conn.Do(`{"id":1,"method":"`+wire.MethodTelemetryPrograms+`"}`))
	cp.Add("telemetry.postcards", conn.Do(`{"id":2,"method":"`+wire.MethodTelemetryPostcards+`"}`))
	cp.Add("telemetry.postcards/owner-limit", conn.Do(`{"id":3,"method":"`+wire.MethodTelemetryPostcards+`","params":{"owner":"ta","limit":2}}`))
	cp.Add("telemetry.postcards/bad-params", conn.Do(`{"id":4,"method":"`+wire.MethodTelemetryPostcards+`","params":{"limit":"x"}}`))
	wiretest.Golden(t, "testdata/telemetry_verbs.golden", cp.Bytes())
}
