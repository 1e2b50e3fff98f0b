// Command experiments regenerates the paper's evaluation artifacts — every
// table and figure of §6 and Appendix C — on the simulated stack and prints
// them as text tables.
//
// Usage:
//
//	experiments [-run all|table1|fig7a|fig7b|fig8|fig9|fig10|table2|fig11|fig12|fig1819|ablations|fig13a|fig13b|fig13c|fig13d|parallel] [-quick]
package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"p4runpro/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "which experiment to run (comma-separated), or 'all'")
	quick := flag.Bool("quick", false, "scaled-down parameters for a fast pass")
	flag.Parse()

	want := map[string]bool{}
	for _, r := range strings.Split(*run, ",") {
		want[strings.TrimSpace(r)] = true
	}
	sel := func(name string) bool { return want["all"] || want[name] }

	// Scale knobs.
	epochs7a, runs7a := 500, 3
	epochs7b := 120
	maxEpochs8 := 4000
	maxEpochs9 := 4000
	maxEpochs12 := 2000
	caseMs := 20000
	if *quick {
		epochs7a, runs7a = 120, 1
		epochs7b = 40
		maxEpochs8 = 800
		maxEpochs9 = 800
		maxEpochs12 = 400
		caseMs = 8000
	}

	section := func(name string, f func()) {
		if !sel(name) {
			return
		}
		start := time.Now()
		fmt.Printf("==== %s ====\n", name)
		f()
		fmt.Printf("(%s took %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	section("table1", func() {
		rows, err := experiments.Table1(5)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		fmt.Print(experiments.RenderTable1(rows))
	})

	section("fig7a", func() {
		series := experiments.Figure7a(epochs7a, runs7a)
		fmt.Print(experiments.RenderFigure7a(series, epochs7a/10))
	})

	section("fig7b", func() {
		rows := experiments.Figure7b([]int{128, 256, 512, 1024}, epochs7b)
		fmt.Print(experiments.RenderFigure7b(rows))
	})

	section("fig8", func() {
		fmt.Print(experiments.RenderFigure8(experiments.Figure8(maxEpochs8)))
	})

	section("fig9", func() {
		fmt.Print(experiments.RenderFigure9(experiments.Figure9(maxEpochs9)))
	})

	section("fig10", func() {
		fmt.Print(experiments.RenderFigure10(experiments.Figure10()))
	})

	section("table2", func() {
		fmt.Print(experiments.RenderTable2(experiments.Table2()))
	})

	section("fig11", func() {
		fmt.Print(experiments.RenderFigure11(experiments.Figure11(nil, 6)))
	})

	var heat []experiments.HeatmapData
	section("fig12", func() {
		rows, h := experiments.Figure12(maxEpochs12)
		heat = h
		fmt.Print(experiments.RenderFigure12(rows))
	})

	section("fig1819", func() {
		if heat == nil {
			_, heat = experiments.Figure12(maxEpochs12)
		}
		for _, h := range heat {
			fmt.Print(experiments.RenderHeatmap(h, true))
		}
		for _, h := range heat {
			fmt.Print(experiments.RenderHeatmap(h, false))
		}
	})

	section("fig13a", func() {
		s := experiments.Figure13a(caseMs)
		fmt.Printf("deployments=%d deletions=%d\n", s.Deployments, s.Deletions)
		fmt.Print(experiments.RenderSeries("contrast RX", s.Contrast, s.Contrast.Values, len(s.Contrast.Values)/20, "Mbps"))
		fmt.Print(experiments.RenderSeries("P4runpro RX", s.P4runpro, s.P4runpro.Values, len(s.P4runpro.Values)/20, "Mbps"))
	})

	section("fig13b", func() {
		s := experiments.Figure13b(caseMs)
		fmt.Printf("steady RX: P4runpro %.1f Mbps, conventional %.1f Mbps; hit rate %.2f vs %.2f\n",
			s.OursSteadyMbps, s.RefSteadyMbps, s.HitRateOurs, s.HitRateRef)
		fmt.Print(experiments.RenderSeries("P4runpro RX", s.P4runpro, s.P4runpro.Values, len(s.P4runpro.Values)/20, "Mbps"))
		fmt.Print(experiments.RenderSeries("conventional RX", s.Conventional, s.Conventional.Values, len(s.Conventional.Values)/20, "Mbps"))
	})

	section("fig13c", func() {
		s := experiments.Figure13c(caseMs)
		fmt.Printf("mean imbalance: P4runpro %.3f, conventional %.3f\n", s.OursMean, s.RefMean)
		fmt.Print(experiments.RenderSeries("P4runpro imbalance", s.P4runpro, s.P4runpro.Values, len(s.P4runpro.Values)/20, "ratio"))
		fmt.Print(experiments.RenderSeries("conventional imbalance", s.Conventional, s.Conventional.Values, len(s.Conventional.Values)/20, "ratio"))
	})

	section("ablations", func() {
		fmt.Println("recirculation budget (all-mixed capacity):")
		for _, r := range experiments.AblationRecirc(maxEpochs12) {
			fmt.Printf("  %-12s capacity=%d mem=%.1f%% entries=%.1f%%\n", r.Config, r.Capacity, r.MemUtil*100, r.EntryUtil*100)
		}
	})

	section("parallel", func() {
		durMs, runs := 1000, 3
		if *quick {
			durMs, runs = 300, 1
		}
		rows := experiments.ParallelScaling(durMs, []int{1, 2, 4, 8}, runs)
		fmt.Printf("replay worker scaling (host has %d CPUs; flat on 1):\n", experiments.NumCPU())
		fmt.Printf("  %-8s %-12s %-12s %-9s %s\n", "workers", "elapsed", "pps", "speedup", "result")
		for _, r := range rows {
			status := "identical"
			if !r.Identical {
				status = "MISMATCH"
			}
			fmt.Printf("  %-8d %-12v %-12.0f %-9.2f %s\n", r.Workers, r.Elapsed.Round(time.Microsecond), r.PPS, r.Speedup, status)
		}
	})

	section("fig13d", func() {
		s := experiments.Figure13d(caseMs)
		fmt.Printf("ground truth %d flows; final F1: P4runpro %.3f, conventional %.3f\n",
			s.TruthSize, s.FinalF1Ours, s.FinalF1Ref)
		fmt.Print(experiments.RenderSeries("P4runpro F1", s.P4runpro, s.P4runpro.Values, len(s.P4runpro.Values)/20, "F1"))
		fmt.Print(experiments.RenderSeries("conventional F1", s.Conventional, s.Conventional.Values, len(s.Conventional.Values)/20, "F1"))
	})
}
