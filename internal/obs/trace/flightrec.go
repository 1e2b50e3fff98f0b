package trace

import (
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"time"
)

// Event is one structured flight-recorder entry. Fields are plain values
// (string headers copy without allocating) so recording stays
// allocation-free; callers should pass strings they already hold rather
// than formatting new ones on the hot path.
type Event struct {
	At     int64         // unix nanoseconds; stamped by Record when zero
	Kind   string        // one of the Ev* kinds below
	Name   string        // subject: program, member, unit
	Detail string        // short free-form qualifier
	Dur    time.Duration // operation duration, if timed
	Err    string        // error text, if the operation failed
	Trace  TraceID       // correlating trace, if the operation was traced
}

// Common event kinds recorded across the control plane.
const (
	EvDeploy      = "deploy"
	EvRevoke      = "revoke"
	EvCutover     = "cutover"
	EvUpgrade     = "upgrade"
	EvReconcile   = "reconcile"
	EvJournalSync = "journal.sync"
	EvHealth      = "health"
	EvBoot        = "boot"
	EvMemWrite    = "memwrite"
	EvCase        = "case"
	EvMcast       = "mcast"
)

// FlightRecorder is a fixed-size ring of recent control-plane events with
// zero steady-state allocations: the ring is preallocated and one mutex
// orders writers against dump-time readers. Control-plane events are rare
// (one per operation), so the lock is uncontended in practice, and an
// Event — four string headers — is not something a lock-free copy can
// publish without a data race.
type FlightRecorder struct {
	mu    sync.Mutex
	slots []Event
	head  uint64 // events recorded since creation; next slot is head % len(slots)
}

// NewFlightRecorder returns a recorder holding the last n events
// (default 512).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = 512
	}
	return &FlightRecorder{slots: make([]Event, n)}
}

// Record appends ev to the ring. Safe for concurrent use; never allocates.
// A nil recorder discards the event.
func (r *FlightRecorder) Record(ev Event) {
	if r == nil {
		return
	}
	if ev.At == 0 {
		ev.At = time.Now().UnixNano()
	}
	r.mu.Lock()
	r.slots[r.head%uint64(len(r.slots))] = ev
	r.head++
	r.mu.Unlock()
}

// RecordOp records one completed operation: its kind, subject and detail,
// the time since start, the trace ID of sp, and err's text when it failed.
// Strings are passed through as-is, so recording allocates nothing beyond
// what the operation already holds. A nil recorder discards the event.
func (r *FlightRecorder) RecordOp(kind, name, detail string, start time.Time, err error, sp *Span) {
	if r == nil {
		return
	}
	ev := Event{Kind: kind, Name: name, Detail: detail, Dur: time.Since(start), Trace: sp.TraceID()}
	if err != nil {
		ev.Err = err.Error()
	}
	r.Record(ev)
}

// Events returns the buffered events, oldest first.
func (r *FlightRecorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.slots))
	start := uint64(0)
	if r.head > n {
		start = r.head - n
	}
	out := make([]Event, 0, r.head-start)
	for i := start; i < r.head; i++ {
		out = append(out, r.slots[i%n])
	}
	return out
}

// eventJSON is the dump form of an Event.
type eventJSON struct {
	At     string `json:"at"`
	Kind   string `json:"kind"`
	Name   string `json:"name,omitempty"`
	Detail string `json:"detail,omitempty"`
	DurUs  int64  `json:"dur_us,omitempty"`
	Err    string `json:"err,omitempty"`
	Trace  string `json:"trace,omitempty"`
}

func (ev Event) toJSON() eventJSON {
	j := eventJSON{
		At:     time.Unix(0, ev.At).UTC().Format(time.RFC3339Nano),
		Kind:   ev.Kind,
		Name:   ev.Name,
		Detail: ev.Detail,
		DurUs:  ev.Dur.Microseconds(),
		Err:    ev.Err,
	}
	if !ev.Trace.IsZero() {
		j.Trace = ev.Trace.String()
	}
	return j
}

// WriteJSON dumps the ring as one JSON object. reason tags why the dump
// happened ("sigquit", "boot", "verb").
func (r *FlightRecorder) WriteJSON(w io.Writer, reason string) error {
	evs := r.Events()
	out := struct {
		Reason string      `json:"reason"`
		Now    string      `json:"now"`
		Events []eventJSON `json:"events"`
	}{
		Reason: reason,
		Now:    time.Now().UTC().Format(time.RFC3339Nano),
		Events: make([]eventJSON, 0, len(evs)),
	}
	for _, ev := range evs {
		out.Events = append(out.Events, ev.toJSON())
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// String renders one event on one line for logs:
// "12:03:04.123 deploy name=hh detail=unit:3 dur=1.2ms".
func (ev Event) String() string {
	out := time.Unix(0, ev.At).UTC().Format("15:04:05.000") + " " + ev.Kind
	if ev.Name != "" {
		out += " name=" + ev.Name
	}
	if ev.Detail != "" {
		out += " detail=" + ev.Detail
	}
	if ev.Dur != 0 {
		out += " dur=" + ev.Dur.String()
	}
	if ev.Err != "" {
		out += " err=" + strconv.Quote(ev.Err)
	}
	if !ev.Trace.IsZero() {
		out += " trace=" + ev.Trace.String()
	}
	return out
}
