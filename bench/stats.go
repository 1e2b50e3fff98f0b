package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of an ascending sample: the
// smallest value with at least p of the sample at or below it. An empty
// sample reads 0.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(asc)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(asc) {
		i = len(asc) - 1
	}
	return asc[i]
}

func median(xs []float64) float64 { return percentile(sorted(xs), 0.5) }

// tailPercentile is the reporting rule of the choosing-metrics guide: the
// highest of p90, p99, p99.9, ... that still has at least ten samples beyond
// it. Below 100 samples no tail is supported and it reads 0.
func tailPercentile(n int) float64 {
	best := 0.0
	for beyond := 10; n/beyond >= 10; beyond *= 10 { // one sample in `beyond` lies past the percentile
		best = 1 - 1/float64(beyond)
	}
	return best
}

// quartiles returns Q1, Q2, Q3 exactly as Python's
// statistics.quantiles(xs, n=4) does (the exclusive method), which is what
// the driver uses to judge spread. Fewer than two values collapse to the
// value itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// Every end-to-end figure is a median over the smallest units of work a run
// repeats: one call, one burst, one batch. On the reference box (a 2-vCPU VM
// with neighbours) a 40 us compute loop reads 40.0-41.1 us at the median
// second after second, while its mean sits 5 % higher and moves, because
// stalls of 2-3 ms land every second; a 21 ms Fabric.Replay pass always
// contains some of them, and the collector's, so pass times move by 10-20 %
// from run to run. A mean over the run, or a tail percentile over the run, is
// mostly that disturbance; the median of many sub-millisecond units is not.

// unitRate is units of work per second through the median unit, given each
// unit's duration in microseconds.
func unitRate(perUnit float64, unitUS []float64) float64 {
	t := median(unitUS)
	if t == 0 {
		return 0
	}
	return perUnit / (t / 1e6)
}

// calmRound builds, from several rounds of the same operations in the same
// order, the round no disturbance touched: each operation's fastest
// completion. A sweep is not stationary, so a median over its operations
// names a place in the sweep, not a speed; but operation i of one round is
// operation i of every other, and a stall rarely hits it every time. Rounds
// are cut to the shortest.
func calmRound(rounds [][]float64) []float64 {
	if len(rounds) == 0 {
		return nil
	}
	out := append([]float64(nil), rounds[0]...)
	for _, r := range rounds[1:] {
		if len(r) < len(out) {
			out = out[:len(r)]
		}
		for i := range out {
			out[i] = math.Min(out[i], r[i])
		}
	}
	return out
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}
