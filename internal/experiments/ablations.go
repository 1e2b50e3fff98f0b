package experiments

import (
	"math/rand"

	"p4runpro/internal/programs"
)

// Ablations of this implementation's design choices, called out in
// DESIGN.md: the recirculation budget R (the paper's §6.3 discussion of
// relaxing it for longer programs and looser allocation constraints).

// AblationRow is one configuration's capacity under the all-mixed workload.
type AblationRow struct {
	Config    string
	Capacity  int
	MemUtil   float64
	EntryUtil float64
}

// AblationRecirc sweeps the recirculation budget R: R=0 rejects every
// program deeper than 22 RPBs outright; larger budgets loosen constraint
// domains and admit longer programs, at the Figure 11 throughput cost.
func AblationRecirc(maxEpochs int) []AblationRow {
	var out []AblationRow
	for _, r := range []int{0, 1, 2} {
		opt := defaultOptions()
		opt.MaxRecirc = r
		ct := newController(opt)
		rng := rand.New(rand.NewSource(77))
		params := programs.DefaultParams()
		n := 0
		for ; n < maxEpochs; n++ {
			if _, err := deployEpoch(ct, WorkloadAllMixed, n, rng, params); err != nil {
				break
			}
		}
		mem, ent := ct.Compiler.Mgr.TotalUtilization()
		out = append(out, AblationRow{
			Config:   "R=" + string(rune('0'+r)),
			Capacity: n, MemUtil: mem, EntryUtil: ent,
		})
	}
	return out
}
