package core

import (
	"errors"
	"fmt"
	"time"

	"p4runpro/internal/lang"
	"p4runpro/internal/resource"
	"p4runpro/internal/smt"
)

// AllocError reports an allocation failure with a best-effort diagnosis of
// the exhausted resource, used by the utilization experiments (§6.2.2).
type AllocError struct {
	Program string
	Reason  string
	Err     error
}

func (e *AllocError) Error() string {
	return fmt.Sprintf("core: cannot allocate %q: %s", e.Program, e.Reason)
}

// Unwrap exposes the underlying solver error.
func (e *AllocError) Unwrap() error { return e.Err }

// Placement is the allocation of one execution depth.
type Placement struct {
	Depth   int // 1-based depth index
	Logical int // logical RPB number x_i in [1, M*(R+1)]
	RPB     resource.RPBID
	Pass    int // recirculation pass (0 = first traversal)
}

// AllocResult is a computed allocation.
type AllocResult struct {
	Placements []Placement
	Stats      smt.Stats
	Duration   time.Duration
}

// MaxPass returns the highest recirculation pass used.
func (a *AllocResult) MaxPass() int {
	max := 0
	for _, p := range a.Placements {
		if p.Pass > max {
			max = p.Pass
		}
	}
	return max
}

// logicalToPhysical maps a logical RPB number to (physical RPB, pass).
func logicalToPhysical(v, m int) (resource.RPBID, int) {
	return resource.RPBID((v-1)%m + 1), (v - 1) / m
}

// exclusion forbids one (depth, logical RPB) assignment; used to repair
// per-physical-RPB aggregate overcommit across recirculation passes.
type exclusion struct {
	depth   int
	logical int
}

// buildModel constructs the §4.3 SMT model for one translated program
// against current resource availability.
func (c *Compiler) buildModel(tp *lang.TProgram, excluded []exclusion) *smt.Model {
	m := c.Plane.M
	n := c.Plane.N
	r := c.Opt.MaxRecirc
	model := smt.NewModel()
	if c.Opt.NodeLimit > 0 {
		model.SetNodeLimit(c.Opt.NodeLimit)
	}
	if c.met != nil {
		model.SetMetrics(c.met.solver)
	}
	L := tp.L()
	vars := make([]smt.Var, L)
	for i := 0; i < L; i++ {
		vars[i] = model.IntVar(fmt.Sprintf("x%d", i+1), 1, m*(r+1))
	}

	// (1) Primitive dependency: strictly increasing.
	model.Add(smt.Chain{Gap: 1})

	memSizes := make(map[string]uint32, len(tp.Memories))
	for _, md := range tp.Memories {
		memSizes[md.Name] = md.Size
	}
	firstAccess := tp.FirstAccessDepth()

	for d := 1; d <= L; d++ {
		d := d
		// (2) Table entries: te_req(x_i) <= te_free(x_i).
		if req := tp.EntriesAt(d); req > 0 {
			model.Add(smt.Unary{
				V:    vars[d-1],
				Name: fmt.Sprintf("te_req=%d", req),
				OK: func(v int) bool {
					rpb, pass := logicalToPhysical(v, m)
					return req <= c.mgrFor(pass).FreeEntries(rpb)
				},
			})
		}
		// (3) Memory: every virtual block first accessed at this depth
		// must fit contiguously in the RPB's memory.
		var placed []uint32
		for _, name := range tp.MemoriesAt(d) {
			if firstAccess[name] == d {
				placed = append(placed, memSizes[name])
			}
		}
		if len(placed) > 0 {
			sizes := placed
			model.Add(smt.Unary{
				V:    vars[d-1],
				Name: "mem_req",
				OK: func(v int) bool {
					rpb, pass := logicalToPhysical(v, m)
					for _, sz := range sizes {
						if !c.mgrFor(pass).CanAlloc(rpb, sz) {
							return false
						}
					}
					return true
				},
			})
		}
		// (4) Forwarding primitives only in ingress RPBs.
		if tp.ForwardingAt(d) {
			model.Add(smt.InWindow{V: vars[d-1], N: n, M: m})
		}
	}
	// (5) Sequential same-memory accesses revisit the same physical RPB in
	// a later pass.
	for _, link := range tp.MemLinks {
		model.Add(smt.SamePhysical{I: vars[link[0]-1], J: vars[link[1]-1], M: m, R: r})
	}
	for _, ex := range excluded {
		ex := ex
		model.Add(smt.Unary{
			V:    vars[ex.depth-1],
			Name: "aggregate-repair",
			OK:   func(v int) bool { return v != ex.logical },
		})
	}
	return model
}

// Allocate computes the placement of a translated program without linking
// it. The returned placements satisfy all five constraint families. The
// per-depth feasibility constraints (2) and (3) check each depth against
// current free resources individually — when two depths of one program land
// in the same physical RPB across recirculation passes, their combined
// demand can exceed what either saw alone; such solutions are detected here
// and repaired by re-solving with the offending assignment excluded.
func (c *Compiler) Allocate(tp *lang.TProgram) (*AllocResult, error) {
	start := time.Now()
	if c.passTargets != nil && len(tp.MemLinks) > 0 {
		// Constraint (5) requires revisiting one physical register array
		// in a later pass; on a chain, later passes are different switches
		// with different memories, so such programs cannot be placed
		// (the paper's noted constraint adjustment for multi-switch
		// deployments).
		return nil, &AllocError{
			Program: tp.Name,
			Reason:  "sequential accesses to one virtual memory require recirculation and cannot span a switch chain",
			Err:     smt.ErrInfeasible,
		}
	}
	var excluded []exclusion
	agg := smt.Stats{Complete: true}
	maxAttempts := 32
	if c.Opt.DisableAggregateRepair {
		maxAttempts = 1
	}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		model := c.buildModel(tp, excluded)

		var sol smt.Solution
		var st smt.Stats
		var err error
		if c.Opt.Objective == ObjHierarchical {
			sol, st, err = smt.MinimizeHierarchical(model)
		} else {
			sol, st, err = model.Minimize(c.Opt.objective())
		}
		agg.Nodes += st.Nodes
		agg.Backtracks += st.Backtracks
		agg.Propagations += st.Propagations
		agg.BoundPrunes += st.BoundPrunes
		agg.Complete = agg.Complete && st.Complete
		if err != nil {
			if errors.Is(err, smt.ErrInfeasible) {
				agg.Duration = time.Since(start)
				return nil, &AllocError{Program: tp.Name, Reason: c.diagnose(tp), Err: err}
			}
			return nil, err
		}
		res := &AllocResult{Stats: agg}
		for i, v := range sol.Values {
			rpb, pass := logicalToPhysical(v, c.Plane.M)
			res.Placements = append(res.Placements, Placement{
				Depth:   i + 1,
				Logical: v,
				RPB:     rpb,
				Pass:    pass,
			})
		}
		if ex, ok := c.overcommitted(tp, res); ok {
			if c.Opt.DisableAggregateRepair {
				return nil, &AllocError{Program: tp.Name, Reason: "solution overcommits a physical RPB (aggregate repair disabled)", Err: smt.ErrInfeasible}
			}
			excluded = append(excluded, ex)
			continue
		}
		res.Stats.Duration = time.Since(start)
		res.Duration = res.Stats.Duration
		return res, nil
	}
	return nil, &AllocError{Program: tp.Name, Reason: "aggregate repair did not converge", Err: smt.ErrInfeasible}
}

// overcommitted validates per-physical-RPB aggregates (entries and memory)
// of a candidate solution, returning an exclusion that would change it.
func (c *Compiler) overcommitted(tp *lang.TProgram, res *AllocResult) (exclusion, bool) {
	// Aggregate per concrete register array: in loop mode, passes share
	// one switch; in chain mode, each pass is its own switch.
	type slot struct {
		mgr *resource.Manager
		rpb resource.RPBID
	}
	entries := make(map[slot]int)
	mem := make(map[slot]uint32)
	memSizes := make(map[string]uint32, len(tp.Memories))
	for _, md := range tp.Memories {
		memSizes[md.Name] = md.Size
	}
	firstAccess := tp.FirstAccessDepth()
	slotOfDepth := make(map[int]slot, len(res.Placements))
	for _, pl := range res.Placements {
		s := slot{mgr: c.mgrFor(pl.Pass), rpb: pl.RPB}
		slotOfDepth[pl.Depth] = s
		entries[s] += tp.EntriesAt(pl.Depth)
	}
	for name, d := range firstAccess {
		mem[slotOfDepth[d]] += memSizes[name]
	}
	for _, pl := range res.Placements {
		s := slotOfDepth[pl.Depth]
		if entries[s] > s.mgr.FreeEntries(s.rpb) && tp.EntriesAt(pl.Depth) > 0 {
			return exclusion{depth: pl.Depth, logical: pl.Logical}, true
		}
		if mem[s] > s.mgr.FreeMemory(s.rpb) && len(tp.MemoriesAt(pl.Depth)) > 0 {
			return exclusion{depth: pl.Depth, logical: pl.Logical}, true
		}
	}
	return exclusion{}, false
}

// diagnose classifies why no allocation exists, mirroring the paper's
// analysis of allocation failures (ingress entries exhausted by forwarding
// dependencies, memory fragmentation, or general entry pressure).
func (c *Compiler) diagnose(tp *lang.TProgram) string {
	m, n := c.Plane.M, c.Plane.N
	hasForwarding := false
	for d := 1; d <= tp.L(); d++ {
		if tp.ForwardingAt(d) {
			hasForwarding = true
			break
		}
	}
	if hasForwarding {
		free := 0
		for rpb := 1; rpb <= n; rpb++ {
			free += c.Mgr.FreeEntries(resource.RPBID(rpb))
		}
		if free < tp.TotalEntries() {
			return "ingress table entries exhausted (forwarding primitives cannot be placed)"
		}
	}
	for _, md := range tp.Memories {
		fits := false
		for rpb := 1; rpb <= m; rpb++ {
			if c.Mgr.CanAlloc(resource.RPBID(rpb), md.Size) {
				fits = true
				break
			}
		}
		if !fits {
			return fmt.Sprintf("no RPB has %d contiguous free memory words for %q", md.Size, md.Name)
		}
	}
	return "no feasible placement under dependency and entry constraints"
}
