package main

import (
	"io"
	"math"
	"reflect"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{99, 0}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {2_000_000, 0.99999}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	asc := make([]float64, 1000)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	// Nearest rank: exactly ten samples lie beyond p99 of 1,000.
	if got := percentile(asc, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
	if got := percentile(asc, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %g %g %g", q1, q2, q3)
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread = %g, want 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: 30..50 is new
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent
		{Name: "a.inner", Start: 12, End: 18, Parent: 1},
	}
	want := []int64{100 - 20 - 20 - 10, 20 - 6, 30, 30, 6}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	var rec *recorder // a nil recorder records nothing and never panics
	rec.end(rec.begin("x", -1, 0))
	if len(rec.selfByName()) != 0 {
		t.Error("nil recorder produced spans")
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		b      []float64
		higher bool
		want   string
	}{
		{[]float64{100, 100, 101, 99, 100}, true, "same"},
		{[]float64{80, 81, 79, 80, 82}, true, "worse"},
		{[]float64{80, 81, 79, 80, 82}, false, "better"},
		{[]float64{120, 121, 119, 122, 120}, true, "better"},
		{[]float64{60, 140, 100, 80, 120}, true, "unresolved"},
		{nil, true, "missing"},
	} {
		if got := verdict(a, c.b, c.higher, 0.1); got != c.want {
			t.Errorf("verdict(%v higher=%t) = %s, want %s", c.b, c.higher, got, c.want)
		}
	}
}

// traceKey flattens a generated trace to comparable values.
func traceKey(seed int64) [][3]uint32 {
	tr := makeTrace(seed, smokeScale.traceMs, fabricDst)
	out := make([][3]uint32, len(tr.Events))
	for i, ev := range tr.Events {
		ft := ev.Pkt.FiveTuple()
		out[i] = [3]uint32{ft.SrcIP, uint32(ft.SrcPort)<<16 | uint32(ft.DstPort), uint32(ev.Pkt.WireLen)}
	}
	return out
}

func TestInputsFollowSeed(t *testing.T) {
	gen := func(seed int64) []any {
		return []any{
			drawPrograms(seed, 64), backgroundPrograms(seed, 64),
			churnPrograms(seed, 64), tinyForwarders(seed, batchSize), traceKey(seed),
		}
	}
	one, again, two := gen(1), gen(1), gen(2)
	for i := range one {
		if !reflect.DeepEqual(one[i], again[i]) {
			t.Errorf("input %d differs between two generations from seed 1", i)
		}
		if reflect.DeepEqual(one[i], two[i]) {
			t.Errorf("input %d is the same for seeds 1 and 2", i)
		}
	}
}

func smokeRun(t *testing.T, seed int64) *run {
	return &run{seed: seed, seconds: 0.3, sc: smokeScale, tmp: t.TempDir(), out: t.TempDir(), log: io.Discard}
}

// exactMetrics must repeat exactly for one seed: they are counts, not times.
var exactMetrics = []string{
	"bench.capacity_programs", "smt.nodes_per_deploy", "smt.propagations_per_deploy",
	"core.entries_per_deploy", "journal.bytes_per_deploy",
	"rmt.passes_per_pkt", "rmt.lookups_per_pkt", "rmt.salu_ops_per_pkt",
}

func TestSmokeAllWorkloads(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code has %d", len(sp.Workloads), len(workloads))
	}
	reported := make(map[string]bool)
	for _, wl := range sp.Workloads {
		w, ok := workloads[wl.Name]
		if !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %s", wl.Name)
		}
		res, err := runOne(sp, w, wl.Name, 0, smokeRun(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed", wl.Name, res.Failed, res.Attempted)
		}
		for name, m := range res.Metrics {
			if !(m.Value > 0) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %g, must be positive", wl.Name, name, m.Value)
			}
		}

		first, err := runOne(sp, w, wl.Name, 1, smokeRun(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		again, err := runOne(sp, w, wl.Name, 1, smokeRun(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		if first.Failed != 0 || again.Failed != 0 {
			t.Errorf("%s traced: %d and %d operations failed", wl.Name, first.Failed, again.Failed)
		}
		for _, name := range exactMetrics {
			if a, b := first.Metrics[name].Value, again.Metrics[name].Value; a != b {
				t.Errorf("%s: exact metric %s read %g then %g for one seed", wl.Name, name, a, b)
			}
		}
		for name, ok := range first.reported {
			reported[name] = reported[name] || ok
		}
	}
	for _, m := range sp.PerLayer {
		if !reported[m.Name] {
			t.Errorf("no workload reports per-layer metric %s", m.Name)
		}
	}
}

func TestCapacityFollowsSeed(t *testing.T) {
	capacity := func(seed int64) int {
		r := smokeRun(t, seed)
		w, err := openWireCtl(r)
		if err != nil {
			t.Fatal(err)
		}
		defer w.close()
		var st fillStats
		fillDrainRound(r, w.c, drawPrograms(seed, r.sc.maxDraw), &st, nil)
		if r.failed != 0 {
			t.Errorf("seed %d: %d operations failed", seed, r.failed)
		}
		return len(st.deployUS[0])
	}
	if a, b := capacity(3), capacity(3); a != b || a == 0 {
		t.Errorf("capacity for one seed read %d then %d", a, b)
	}
}
