package experiments

import (
	"math/rand"

	"p4runpro/internal/core"
	"p4runpro/internal/programs"
)

// ObjectiveRow is one scheme of Figure 12: deploy the all-mixed workload
// until failure under one allocation objective.
type ObjectiveRow struct {
	Objective  string
	Capacity   int
	MemUtil    float64
	EntryUtil  float64
	AvgDelayMs float64
	MaxDelayMs float64
}

// HeatmapData holds the Appendix C per-RPB utilization trajectories
// (Figures 18 and 19): for each objective, per 100-epoch segment, per RPB,
// the mean utilization within the segment.
type HeatmapData struct {
	Objective string
	SegmentSz int
	// Mem[seg][rpb] and Entries[seg][rpb] are utilization fractions.
	Mem     [][]float64
	Entries [][]float64
}

// Objectives lists the §6.2.4 schemes.
var Objectives = []core.ObjectiveKind{core.ObjF1, core.ObjF2, core.ObjF3, core.ObjHierarchical}

// Figure12 compares the four allocation objectives under the all-mixed
// workload, also collecting the Figures 18/19 heatmaps.
func Figure12(maxEpochs int) ([]ObjectiveRow, []HeatmapData) {
	const segment = 100
	var rows []ObjectiveRow
	var heat []HeatmapData
	for _, obj := range Objectives {
		opt := defaultOptions()
		opt.Objective = obj
		ct := newController(opt)
		rng := rand.New(rand.NewSource(99))
		params := programs.DefaultParams()

		var delays []float64
		h := HeatmapData{Objective: obj.String(), SegmentSz: segment}
		var segMem, segEnt []float64
		m := ct.Plane.M
		segMem = make([]float64, m)
		segEnt = make([]float64, m)
		segCount := 0

		flush := func() {
			if segCount == 0 {
				return
			}
			mem := make([]float64, m)
			ent := make([]float64, m)
			for i := 0; i < m; i++ {
				mem[i] = segMem[i] / float64(segCount)
				ent[i] = segEnt[i] / float64(segCount)
			}
			h.Mem = append(h.Mem, mem)
			h.Entries = append(h.Entries, ent)
			segMem = make([]float64, m)
			segEnt = make([]float64, m)
			segCount = 0
		}

		n := 0
		for ; n < maxEpochs; n++ {
			rep, err := deployEpoch(ct, WorkloadAllMixed, n, rng, params)
			if err != nil {
				break
			}
			delays = append(delays, rep.AllocTime.Seconds()*1000)
			for _, u := range ct.Utilization() {
				i := int(u.RPB) - 1
				segMem[i] += float64(u.MemUsed) / float64(u.MemCap)
				segEnt[i] += float64(u.EntriesUsed) / float64(u.EntriesCap)
			}
			segCount++
			if segCount == segment {
				flush()
			}
		}
		// The paper discards the trailing partial segment; we do too.
		mem, ent := ct.Compiler.Mgr.TotalUtilization()
		row := ObjectiveRow{
			Objective: obj.String(),
			Capacity:  n, MemUtil: mem, EntryUtil: ent,
		}
		for _, d := range delays {
			row.AvgDelayMs += d
			if d > row.MaxDelayMs {
				row.MaxDelayMs = d
			}
		}
		if len(delays) > 0 {
			row.AvgDelayMs /= float64(len(delays))
		}
		rows = append(rows, row)
		heat = append(heat, h)
	}
	return rows, heat
}
