package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderBasics(t *testing.T) {
	r := NewFlightRecorder(4)
	for i := 0; i < 6; i++ {
		r.Record(Event{Kind: EvDeploy, Name: string(rune('a' + i))})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("want 4 events, got %d", len(evs))
	}
	if evs[0].Name != "c" || evs[3].Name != "f" {
		t.Fatalf("wrong window: %v", evs)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("events out of order")
		}
	}
}

func TestFlightRecorderZeroAlloc(t *testing.T) {
	r := NewFlightRecorder(64)
	ev := Event{Kind: EvJournalSync, Name: "wal", Detail: "group", Dur: time.Millisecond}
	allocs := testing.AllocsPerRun(200, func() { r.Record(ev) })
	if allocs != 0 {
		t.Fatalf("Record allocated %.1f/op", allocs)
	}
	var nilRec *FlightRecorder
	nilRec.Record(ev) // must not panic
	if nilRec.Events() != nil {
		t.Fatal("nil recorder not inert")
	}
}

func TestFlightRecorderDumpJSON(t *testing.T) {
	r := NewFlightRecorder(8)
	tid := NewTraceID()
	r.Record(Event{Kind: EvDeploy, Name: "prog", Detail: "unit:2", Dur: 3 * time.Millisecond, Trace: tid})
	r.Record(Event{Kind: EvHealth, Name: "sw1", Detail: "healthy->suspect", Err: "probe timeout"})
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, "sigquit"); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Reason string `json:"reason"`
		Events []struct {
			Kind  string `json:"kind"`
			Name  string `json:"name"`
			Trace string `json:"trace"`
			Err   string `json:"err"`
		} `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("dump is not valid JSON: %v\n%s", err, buf.String())
	}
	if out.Reason != "sigquit" || len(out.Events) != 2 {
		t.Fatalf("bad dump: %+v", out)
	}
	if out.Events[0].Trace != tid.String() || out.Events[1].Err != "probe timeout" {
		t.Fatalf("fields lost: %+v", out.Events)
	}
	if s := r.Events()[1].String(); !strings.Contains(s, "health") || !strings.Contains(s, "suspect") {
		t.Fatalf("event String() unreadable: %q", s)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	r := NewFlightRecorder(32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Record(Event{Kind: EvReconcile, Name: "m", Detail: "repair"})
			}
		}()
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				for _, ev := range r.Events() {
					if ev.Kind != EvReconcile {
						panic("torn read: " + ev.Kind)
					}
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	if got := len(r.Events()); got != 32 {
		t.Fatalf("ring should be full at 32, got %d", got)
	}
}
