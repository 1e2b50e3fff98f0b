package traffic

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"strings"
	"testing"

	"p4runpro/internal/pkt"
	"p4runpro/internal/rmt"
)

// handTrace builds a tiny trace with distinct flows, ports, and
// microsecond-exact timestamps, so round trips can be asserted field by
// field.
func handTrace() *Trace {
	tr := &Trace{Counts: make(map[pkt.FiveTuple]int)}
	times := []float64{0, 1.5, 1.5, 7.25, 100.001} // ms; all whole µs
	for i, at := range times {
		flow := pkt.FiveTuple{
			SrcIP: pkt.IP(10, 0, 0, byte(i+1)), DstIP: pkt.IP(10, 9, 9, 9),
			SrcPort: uint16(1000 + i), DstPort: 53, Proto: pkt.ProtoUDP,
		}
		p := pkt.NewUDP(flow, 64+i*13)
		tr.Events = append(tr.Events, Event{AtMs: at, Pkt: p, Port: i % 4})
		tr.Counts[flow]++
	}
	return tr
}

// orderInjector records the order packets arrive in.
type orderInjector struct {
	flows []pkt.FiveTuple
	ports []int
}

func (o *orderInjector) Inject(p *pkt.Packet, port int) rmt.Result {
	o.flows = append(o.flows, p.FiveTuple())
	o.ports = append(o.ports, port)
	return rmt.Result{Verdict: rmt.VerdictForwarded, OutPort: port}
}

func TestTraceFileExactRoundTripAndOrder(t *testing.T) {
	tr := handTrace()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("events = %d, want %d", len(got.Events), len(tr.Events))
	}
	for i, want := range tr.Events {
		ev := got.Events[i]
		// Whole-microsecond timestamps survive bit-exact, and the frame
		// bytes re-marshal identically after the parse round trip.
		if ev.AtMs != want.AtMs {
			t.Errorf("event %d at %v, want %v", i, ev.AtMs, want.AtMs)
		}
		if ev.Port != want.Port {
			t.Errorf("event %d port %d, want %d", i, ev.Port, want.Port)
		}
		if !bytes.Equal(ev.Pkt.Marshal(), want.Pkt.Marshal()) {
			t.Errorf("event %d frame bytes differ", i)
		}
	}
	// Replaying the loaded trace preserves packet order end to end.
	inj := &orderInjector{}
	res := Replay(got, PerPacket(inj.Inject), nil, 50)
	if res.Packets != len(tr.Events) {
		t.Fatalf("replayed %d packets, want %d", res.Packets, len(tr.Events))
	}
	for i, want := range tr.Events {
		if inj.flows[i] != want.Pkt.FiveTuple() || inj.ports[i] != want.Port {
			t.Errorf("replay position %d got flow %v port %d, want %v port %d",
				i, inj.flows[i], inj.ports[i], want.Pkt.FiveTuple(), want.Port)
		}
	}
}

func TestTraceFileTruncationAtEveryBoundary(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, handTrace()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := ReadTrace(bytes.NewReader(full)); err != nil {
		t.Fatalf("full trace rejected: %v", err)
	}
	// Every strict prefix — header cuts, event-record cuts, mid-frame
	// cuts — must fail, and always with the typed container error.
	for n := 0; n < len(full); n++ {
		_, err := ReadTrace(bytes.NewReader(full[:n]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes accepted", n, len(full))
		}
		if !errors.Is(err, ErrBadTraceFile) {
			t.Fatalf("prefix %d: err = %v, want ErrBadTraceFile", n, err)
		}
	}
}

// TestTraceFileHugeCountNoBody: a 16-byte header claiming 2^28 events is
// refused with the typed error before the reader allocates for them.
func TestTraceFileHugeCountNoBody(t *testing.T) {
	data := binary.BigEndian.AppendUint64(append([]byte{}, traceMagic[:]...), 1<<28)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadTrace(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadTraceFile) {
		t.Fatalf("err = %v, want ErrBadTraceFile", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("reading a bodiless header allocated %d bytes, want < 1 MB", grew)
	}
}

// FuzzReadTrace: every input ends in a trace or ErrBadTraceFile, without a
// panic and without allocating for events the input does not hold.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, handTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(binary.BigEndian.AppendUint64(append([]byte{}, traceMagic[:]...), 1<<28))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadTraceFile) {
				t.Fatalf("err = %v, want ErrBadTraceFile", err)
			}
			return
		}
		if len(tr.Events) > len(data)/12 {
			t.Fatalf("%d events from %d bytes", len(tr.Events), len(data))
		}
	})
}

func TestTraceFileOutOfOrderRejected(t *testing.T) {
	tr := handTrace()
	// WriteTrace trusts its caller; ReadTrace must catch the regression.
	tr.Events[1].AtMs = 500
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	_, err := ReadTrace(&buf)
	if !errors.Is(err, ErrBadTraceFile) || !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("err = %v, want out-of-order ErrBadTraceFile", err)
	}
}

func TestWriteTraceOversizedFrame(t *testing.T) {
	flow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: pkt.ProtoUDP}
	tr := &Trace{Events: []Event{
		{AtMs: 0, Pkt: pkt.NewUDP(flow, 0x10000), Port: 0}, // 65536 > u16 length field
	}}
	var buf bytes.Buffer
	err := WriteTrace(&buf, tr)
	if err == nil || !strings.Contains(err.Error(), "exceeds container limit") {
		t.Fatalf("err = %v, want container-limit error", err)
	}
}
