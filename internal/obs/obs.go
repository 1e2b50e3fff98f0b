// Package obs is P4runpro's observability layer: dependency-free metric
// primitives (atomic counters and gauges, lock-free histograms with
// p50/p95/p99 quantiles), lightweight span tracing with parent/child timing,
// a Registry that renders Prometheus-style text exposition and JSON, and a
// counted structured logging helper.
//
// The paper's evaluation (§6.2) is built on measured deployment delays,
// solver search effort, and per-resource utilization. This package makes
// those quantities continuously observable on a running controller instead
// of one-shot experiment outputs: the control plane records operation
// latencies and outcomes, the compiler records per-phase spans, the solver
// records search effort, and the simulated switch records packet-path
// counters. Everything is exported over the control channel through the
// wire protocol's "metrics" verb (see internal/wire and `p4rpctl metrics`).
//
// Instrumentation on the packet path is zero-allocation: hot-path recording
// is a single atomic add (Counter.Add / Histogram.Observe); rendering and
// quantile estimation allocate only at scrape time.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value is
// ready to use. All methods are safe for concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic float64 value that can go up and down. The zero value
// is ready to use and reads as 0.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (may be negative).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram bucket layout (HDR-histogram style): values below histSubCount
// are recorded exactly; above that, each power-of-two range is divided into
// histHalf linear sub-buckets, bounding the relative quantile error by
// 1/histHalf (~3%). Recording is a bucket-index computation plus two atomic
// adds — no locks, no allocation.
const (
	histSubBits  = 6
	histSubCount = 1 << histSubBits // 64 exact low buckets
	histHalf     = histSubCount / 2
	histBuckets  = histSubCount + histHalf*(64-histSubBits)
)

// Histogram accumulates a distribution of uint64 observations (typically
// nanoseconds or solver node counts) with cheap concurrent recording and
// approximate quantiles. The zero value is ready to use.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// histIndex maps a value to its bucket.
func histIndex(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	shift := bits.Len64(v) - histSubBits // >= 1
	return histSubCount + (shift-1)*histHalf + int(v>>uint(shift)) - histHalf
}

// histValue returns the midpoint of a bucket's value range, the estimate
// reported for any observation recorded in it.
func histValue(idx int) uint64 {
	if idx < histSubCount {
		return uint64(idx)
	}
	rel := idx - histSubCount
	shift := rel/histHalf + 1
	mant := uint64(histHalf + rel%histHalf)
	lo := mant << uint(shift)
	return lo + uint64(1)<<uint(shift)/2
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[histIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in nanoseconds (negative durations
// record as zero).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Quantile estimates the q-quantile (q in [0,1]) of the recorded
// distribution, with relative error bounded by the bucket layout (~3% above
// 64, exact below). An empty histogram reports 0. The scan is not atomic
// with respect to concurrent recording; under load it reports a value
// consistent with some recent state, which is what a scrape wants.
func (h *Histogram) Quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			return histValue(i)
		}
	}
	// Concurrent recording moved the total; report the highest non-empty
	// bucket seen.
	for i := histBuckets - 1; i >= 0; i-- {
		if h.buckets[i].Load() > 0 {
			return histValue(i)
		}
	}
	return 0
}
