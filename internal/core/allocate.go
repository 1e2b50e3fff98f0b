package core

import (
	"errors"
	"fmt"
	"slices"
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

// buildModel constructs the §4.3 SMT model for one translated program
// against current resource availability, read once per switch.
func (c *Compiler) buildModel(tp *lang.TProgram, observe bool) *smt.Model {
	m := c.Plane.M
	n := c.Plane.N
	r := c.Opt.MaxRecirc
	model := smt.NewModel()
	if c.Opt.NodeLimit > 0 {
		model.SetNodeLimit(c.Opt.NodeLimit)
	}
	if observe && c.met != nil {
		model.SetMetrics(c.met.solver)
	}
	L := tp.L()
	vars := make([]smt.Var, L)
	for i := 0; i < L; i++ {
		vars[i] = model.IntVar(fmt.Sprintf("x%d", i+1), 1, m*(r+1))
	}

	// A slot is one physical RPB of one switch: in loop mode every pass
	// shares this switch, in chain mode each pass is its own. slotOf maps
	// each logical RPB number to its slot, free holds each slot's
	// resources from one locked Snapshot per switch.
	var mgrs []*resource.Manager
	var free []resource.Utilization
	slotOf := make([]int, m*(r+1)+1)
	for v := 1; v <= m*(r+1); v++ {
		rpb, pass := logicalToPhysical(v, m)
		mgr := c.mgrFor(pass)
		k := slices.Index(mgrs, mgr)
		if k < 0 {
			k = len(mgrs)
			mgrs = append(mgrs, mgr)
			free = append(free, mgr.Snapshot()...)
		}
		slotOf[v] = k*m + int(rpb) - 1
	}

	// (1) Primitive dependency: strictly increasing.
	model.Add(smt.Chain{Gap: 1})

	firstAccess := tp.FirstAccessDepth()
	memSizes := make(map[string]uint32, len(tp.Memories))
	sc := &slotCapacity{slotOf: slotOf, free: free, entries: make([]int, L), words: make([]uint32, L)}
	var words uint32
	for _, md := range tp.Memories {
		memSizes[md.Name] = md.Size
		sc.words[firstAccess[md.Name]-1] += md.Size
		words += md.Size
	}

	for d := 1; d <= L; d++ {
		// (2) Table entries: te_req(x_i) <= te_free(x_i), and (3) memory:
		// every virtual block first accessed at this depth fits
		// contiguously in the RPB's memory. Both filter the domain.
		req := tp.EntriesAt(d)
		sc.entries[d-1] = req
		var biggest uint32
		for _, name := range tp.MemoriesAt(d) {
			if firstAccess[name] == d {
				biggest = max(biggest, memSizes[name])
			}
		}
		if req > 0 || biggest > 0 {
			model.Restrict(vars[d-1], func(v int) bool {
				u := free[slotOf[v]]
				return req <= u.FreeEntries() && biggest <= u.MaxBlock
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

	// (2) and (3) summed per slot, since depths in different passes can
	// share one. Only a slot without room for the whole program needs
	// the sum, and without such a slot the constraint is left out.
	entries := tp.TotalEntries()
	sc.roomy = make([]bool, len(free))
	tight := false
	for s, u := range free {
		sc.roomy[s] = entries <= u.FreeEntries() && words <= u.MemFree
		tight = tight || !sc.roomy[s]
	}
	if tight {
		model.Add(sc)
	}
	return model
}

// slotCapacity is constraints (2) and (3) summed per slot: the entries of
// every depth assigned to a slot, and the memory blocks first accessed at
// those depths, fit the slot's free entries and free words. Contiguity of
// each block stays with the per-depth domain filter.
type slotCapacity struct {
	slotOf  []int                  // logical RPB number -> slot
	free    []resource.Utilization // per slot
	roomy   []bool                 // per slot: the whole program fits, no sum needed
	entries []int                  // per depth
	words   []uint32               // per depth: blocks first accessed there
}

// FeasibleAt implements smt.IncrementalConstraint: only the slot of the
// depth just assigned gained demand.
func (sc *slotCapacity) FeasibleAt(i int, vals []int, set []bool) bool {
	s := sc.slotOf[vals[i]]
	if sc.roomy[s] {
		return true
	}
	var entries int
	var words uint32
	for j, v := range vals {
		if set[j] && sc.slotOf[v] == s {
			entries += sc.entries[j]
			words += sc.words[j]
		}
	}
	return entries <= sc.free[s].FreeEntries() && words <= sc.free[s].MemFree
}

// Feasible implements smt.Constraint.
func (sc *slotCapacity) Feasible(vals []int, set []bool) bool {
	for i := range vals {
		if set[i] && !sc.FeasibleAt(i, vals, set) {
			return false
		}
	}
	return true
}

func (sc *slotCapacity) String() string { return "slot-capacity" }

// Allocate computes the placement of a translated program without linking
// it, with one solve. The returned placements satisfy all five constraint
// families, and the depths sharing a physical RPB across recirculation
// passes fit its free entries and memory together.
func (c *Compiler) Allocate(tp *lang.TProgram) (*AllocResult, error) {
	return c.allocate(tp, true)
}

// allocate is Allocate, recording the solve into the solver metrics only
// when observe is set.
func (c *Compiler) allocate(tp *lang.TProgram, observe bool) (*AllocResult, error) {
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
	model := c.buildModel(tp, observe)
	var sol smt.Solution
	var st smt.Stats
	var err error
	if c.Opt.Objective == ObjHierarchical {
		sol, st, err = smt.MinimizeHierarchical(model)
	} else {
		sol, st, err = model.Minimize(c.Opt.objective())
	}
	if err != nil {
		if errors.Is(err, smt.ErrInfeasible) {
			return nil, &AllocError{Program: tp.Name, Reason: c.diagnose(tp), Err: err}
		}
		return nil, err
	}
	res := &AllocResult{Stats: st}
	for i, v := range sol.Values {
		rpb, pass := logicalToPhysical(v, c.Plane.M)
		res.Placements = append(res.Placements, Placement{
			Depth:   i + 1,
			Logical: v,
			RPB:     rpb,
			Pass:    pass,
		})
	}
	res.Stats.Duration = time.Since(start)
	res.Duration = res.Stats.Duration
	return res, nil
}

// diagnose classifies why no allocation exists, mirroring the paper's
// analysis of allocation failures (ingress entries exhausted by forwarding
// dependencies, memory fragmentation, or general entry pressure).
func (c *Compiler) diagnose(tp *lang.TProgram) string {
	snap := c.Mgr.Snapshot()
	hasForwarding := false
	for d := 1; d <= tp.L(); d++ {
		if tp.ForwardingAt(d) {
			hasForwarding = true
			break
		}
	}
	if hasForwarding {
		free := 0
		for _, u := range snap[:c.Plane.N] {
			free += u.FreeEntries()
		}
		if free < tp.TotalEntries() {
			return "ingress table entries exhausted (forwarding primitives cannot be placed)"
		}
	}
	for _, md := range tp.Memories {
		if !slices.ContainsFunc(snap, func(u resource.Utilization) bool { return u.MaxBlock >= md.Size }) {
			return fmt.Sprintf("no RPB has %d contiguous free memory words for %q", md.Size, md.Name)
		}
	}
	return "no feasible placement under dependency and entry constraints"
}
