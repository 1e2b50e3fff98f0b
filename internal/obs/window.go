package obs

import (
	"sync"
	"time"
)

// Window is a fixed-size ring of timestamped cumulative-counter samples, the
// building block for windowed rates: a sweeper periodically observes a
// monotonic counter (packets injected, entry hits, memory words held) and
// Rate reports the per-second slope across the retained samples. Keeping the
// ring fixed-size bounds memory no matter how long the counter is watched —
// the telemetry engine holds one Window per program per quantity, and the
// replay engine one per worker.
//
// Unlike Counter and Gauge, Window recording takes a mutex: observations
// happen at sweep cadence (or once per few hundred packets in the replay
// engine), never per packet, so contention is not a concern.
type Window struct {
	mu   sync.Mutex
	at   []time.Time
	v    []uint64
	head int // next slot to write
	n    int // filled slots
}

// NewWindow creates a window retaining the last keep samples. keep < 2 is
// raised to 2, the minimum that defines a rate.
func NewWindow(keep int) *Window {
	if keep < 2 {
		keep = 2
	}
	return &Window{at: make([]time.Time, keep), v: make([]uint64, keep)}
}

// Observe appends one sample of the watched counter.
func (w *Window) Observe(at time.Time, v uint64) {
	w.mu.Lock()
	w.at[w.head] = at
	w.v[w.head] = v
	w.head = (w.head + 1) % len(w.v)
	if w.n < len(w.v) {
		w.n++
	}
	w.mu.Unlock()
}

// Reset discards every retained sample (between replay runs, so a finished
// run's slope never bleeds into the next one's rates).
func (w *Window) Reset() {
	w.mu.Lock()
	w.head, w.n = 0, 0
	w.mu.Unlock()
}

// oldestNewestLocked returns the bounding samples. Caller holds w.mu and has
// checked n >= 2.
func (w *Window) oldestNewestLocked() (t0 time.Time, v0 uint64, t1 time.Time, v1 uint64) {
	oldest := (w.head - w.n + len(w.v)) % len(w.v)
	newest := (w.head - 1 + len(w.v)) % len(w.v)
	return w.at[oldest], w.v[oldest], w.at[newest], w.v[newest]
}

// Rate returns the windowed per-second slope of the watched counter: the
// value delta between the oldest and newest retained samples over their time
// span. A counter that moved backwards (a reset between samples) yields a
// negative rate — meaningful for occupancy quantities like memory words,
// where shrinking is real information. Fewer than two samples, or a zero
// time span, report 0.
func (w *Window) Rate() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n < 2 {
		return 0
	}
	t0, v0, t1, v1 := w.oldestNewestLocked()
	dt := t1.Sub(t0).Seconds()
	if dt <= 0 {
		return 0
	}
	return (float64(v1) - float64(v0)) / dt
}

// Span returns the time covered by the retained samples (0 with fewer than
// two), so consumers can report how much history a rate reflects.
func (w *Window) Span() time.Duration {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n < 2 {
		return 0
	}
	t0, _, t1, _ := w.oldestNewestLocked()
	return t1.Sub(t0)
}

// Len returns the number of retained samples.
func (w *Window) Len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.n
}
