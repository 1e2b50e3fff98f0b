package controlplane

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"p4runpro/internal/core"
	"p4runpro/internal/journal"
	"p4runpro/internal/obs"
	"p4runpro/internal/resource"
	"p4runpro/internal/rmt"
)

const planSrc = `
@ m 256
program counter(<hdr.ipv4.src, 10.0.0.0, 0xff000000>) {
    LOADI(sar, 1);
    HASH_5_TUPLE_MEM(m);
    MEMADD(m);
}
program solo(<hdr.ipv4.src, 13.0.0.0, 0xff000000>) { DROP; }
`

// planHugeSrc links a small program first and then one whose memory no RPB
// holds, so the refusal comes after a reservation the plan must release.
const planHugeSrc = `
program first(<hdr.ipv4.src, 15.0.0.0, 0xff000000>) { FORWARD(1); }
@ huge 131072
program huge(<hdr.ipv4.src, 14.0.0.0, 0xff000000>) {
    LOADI(sar, 1);
    HASH_5_TUPLE_MEM(huge);
    MEMADD(huge);
}
`

// planView is everything a plan must leave as it found it, down to the
// compiler and solver metrics, which measure links only.
type planView struct {
	Tables   []string
	Util     []resource.Utilization
	Programs []ProgramInfo
	Records  uint64
	Solves   uint64
	Phases   []uint64
}

func viewOf(ct *Controller) planView {
	v := planView{
		Util:     ct.Utilization(),
		Programs: ct.Programs(),
		Records: ct.Obs.Counter("p4runpro_journal_records_total", "Journal records by direction.",
			obs.L("dir", "appended")).Value(),
		Solves: ct.Obs.Histogram("p4runpro_solver_nodes", "").Count(),
	}
	for _, ph := range []string{core.PhaseParse, core.PhaseTranslate, core.PhaseAllocate} {
		v.Phases = append(v.Phases, ct.Obs.Histogram("p4runpro_compiler_phase_ns", "", obs.L("phase", ph)).Count())
	}
	for _, tb := range ct.SW.Tables() {
		for _, e := range tb.Entries() {
			v.Tables = append(v.Tables, fmt.Sprintf("%s #%d %v p%d %s%v %s",
				tb.Name, e.ID, e.Keys, e.Priority, e.Action, e.Params, e.Owner))
		}
	}
	sort.Strings(v.Tables) // Tables() has no fixed order
	return v
}

// TestPlanIsPure: planning a two-program source on a journaled controller
// changes no table, utilization, listing or journal record and no program
// ID, and reports what the deploy that follows links. A source the deploy
// refuses, the plan refuses with the same error, and changes nothing
// either.
func TestPlanIsPure(t *testing.T) {
	ctx := context.Background()
	journaled := func() *Controller {
		ct, err := Recover(t.TempDir(), rmt.DefaultConfig(), core.DefaultOptions(), journal.Options{Sync: journal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ct.Journal().Close() })
		if _, err := ct.Deploy(recCacheSrc); err != nil {
			t.Fatal(err)
		}
		return ct
	}
	ct, twin := journaled(), journaled()

	before := viewOf(ct)
	plan, err := ct.Plan(ctx, planSrc)
	if err != nil {
		t.Fatal(err)
	}
	if after := viewOf(ct); !reflect.DeepEqual(before, after) {
		t.Fatalf("plan changed the controller:\nbefore %+v\nafter  %+v", before, after)
	}
	reports, err := ct.Deploy(planSrc)
	if err != nil {
		t.Fatal(err)
	}
	// The twin never planned: the same deploy there gets the same IDs.
	twinReports, err := twin.Deploy(planSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 2 || len(reports) != 2 {
		t.Fatalf("plan %d programs, deploy %d, want 2", len(plan), len(reports))
	}
	for i, p := range plan {
		rep := reports[i]
		if rep.ProgramID != twinReports[i].ProgramID {
			t.Errorf("%s: id %d after a plan, %d without", rep.Program, rep.ProgramID, twinReports[i].ProgramID)
		}
		lp, _ := ct.Compiler.Linked(rep.Program)
		if p.Name != rep.Program || p.Stats.EntryCount != rep.Entries || p.Stats.MemWords != lp.Stats.MemWords {
			t.Errorf("plan %s: %d entries %d words, deploy %s: %d entries %d words",
				p.Name, p.Stats.EntryCount, p.Stats.MemWords, rep.Program, rep.Entries, lp.Stats.MemWords)
		}
		if !reflect.DeepEqual(p.Alloc.Placements, lp.Alloc.Placements) || !reflect.DeepEqual(p.Blocks(), lp.Blocks()) {
			t.Errorf("%s: plan placed %v %v, deploy %v %v", p.Name, p.Alloc.Placements, p.Blocks(), lp.Alloc.Placements, lp.Blocks())
		}
	}

	for name, src := range map[string]string{
		"parse error": "program broken(",
		"duplicate":   planSrc,
		"infeasible":  planHugeSrc,
	} {
		before := viewOf(ct)
		_, perr := ct.Plan(ctx, src)
		if after := viewOf(ct); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: refused plan changed the controller", name)
		}
		_, derr := ct.Deploy(src)
		if perr == nil || derr == nil || perr.Error() != derr.Error() {
			t.Errorf("%s: plan error %v, deploy error %v", name, perr, derr)
		}
	}
}
