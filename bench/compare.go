package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
)

// verdict judges one end-to-end metric of b (the change) against a (the
// parent) by the rules of the choosing-metrics guide: a regression is a
// median worse by more than the bound; where either side's own spread is
// wider than the bound the pair is unresolved, unless every run of b beats
// every run of a; a gain must clear the parent's interquartile distance.
func verdict(a, b []float64, higherIsBetter bool, bound float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	sign := 1.0 // positive gain = b better
	if !higherIsBetter {
		sign = -1
	}
	q1, ma, q3 := quartiles(a)
	_, mb, _ := quartiles(b)
	gain := sign * (mb - ma)
	allBetter := len(a) > 1 && len(b) > 1 // one run proves nothing about every run
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter && gain > q3-q1:
		return "better"
	case spread(a) > bound || spread(b) > bound:
		return "unresolved"
	case -gain > bound*math.Abs(ma):
		return "worse"
	case gain > q3-q1 && gain > bound*math.Abs(ma):
		return "better"
	}
	return "same"
}

func loadResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// values collects one metric of one workload and mode across a file's runs.
func (f *resultFile) values(workload string, trace int, name string) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// failedShare is failed/ops of one workload over every run of a file.
func (f *resultFile) failedShare(workload string) float64 {
	var failed, attempted int64
	for _, r := range f.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func summary(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%12.4g [%.4g, %.4g]", q2, q1, q3)
}

// compareFiles prints one row per workload and metric — medians with
// quartiles on both sides and, for end-to-end metrics, a verdict against the
// bound in BENCHMARK.json — and fails on any regression or on a higher
// failed/ops.
func compareFiles(sp *spec, pathA, pathB string) error {
	a, err := loadResults(pathA)
	if err != nil {
		return err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a: %s  commit %s, %s, GOMAXPROCS %d, journal on %s\n", pathA, a.Stamp.Commit, a.Stamp.CPU, a.Stamp.GoMaxProcs, a.Stamp.JournalFS)
	fmt.Printf("b: %s  commit %s, %s, GOMAXPROCS %d, journal on %s\n", pathB, b.Stamp.Commit, b.Stamp.CPU, b.Stamp.GoMaxProcs, b.Stamp.JournalFS)
	bad := 0
	for _, wl := range sp.Workloads {
		fmt.Printf("\n%s\n  %-36s %-8s %-40s %-40s %8s %6s  %s\n", wl.Name, "metric", "unit", "a: median [q1, q3]", "b: median [q1, q3]", "b/a", "bound", "verdict")
		for _, m := range sp.EndToEnd {
			va, vb := a.values(wl.Name, 0, m.Name), b.values(wl.Name, 0, m.Name)
			v := verdict(va, vb, m.Better == "higher", *m.Bound)
			if v == "worse" || v == "missing" {
				bad++
			}
			fmt.Printf("  %-36s %-8s %-40s %-40s %8.3f %6.2f  %s\n", m.Name, m.Unit, summary(va), summary(vb), median(vb)/median(va), *m.Bound, v)
		}
		for _, m := range sp.PerLayer {
			va, vb := a.values(wl.Name, 1, m.Name), b.values(wl.Name, 1, m.Name)
			if median(va) == 0 && median(vb) == 0 {
				continue // the layer does no work for this workload
			}
			fmt.Printf("  %-36s %-8s %-40s %-40s %8.3f\n", m.Name, m.Unit, summary(va), summary(vb), median(vb)/median(va))
		}
		fa, fb := a.failedShare(wl.Name), b.failedShare(wl.Name)
		fmt.Printf("  failed/ops: a %.3g, b %.3g\n", fa, fb)
		if fb > fa {
			bad++
		}
	}
	if bad > 0 {
		return errors.New("b is worse than a: see the verdicts and failed/ops above")
	}
	return nil
}
