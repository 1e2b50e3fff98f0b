// Package smt is a small integer constraint solver used by the P4runpro
// compiler in place of the paper's Z3. It solves the allocation problem of
// §4.3 exactly: a vector of integer variables under a strict-increase chain,
// unary feasibility predicates (table-entry and memory availability per
// logical RPB), membership constraints (forwarding primitives restricted to
// ingress RPBs), and modular-equality links (sequential accesses to the same
// virtual memory must land in the same physical RPB across recirculation
// passes), minimizing a pluggable objective via branch-and-bound with
// constraint propagation.
//
// The solver is deliberately general: models are built from Variables and
// Constraints, and any Objective implementing an admissible bound can drive
// the search. At every node the chain window is propagated over the
// unassigned suffix, which cuts subtrees with no completion and hands the
// bound the exact smallest reachable x_L, so searches finish: the answer is
// the lexicographically first optimum, never a node-limit incumbent. The
// objectives still differ in effort — f3 = x_L/x_1 rewards every larger x_1,
// so it explores the most nodes (Figure 12's ordering).
package smt

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"p4runpro/internal/obs"
)

// ErrInfeasible reports that no assignment satisfies all constraints.
var ErrInfeasible = errors.New("smt: infeasible")

// Var identifies a model variable by index.
type Var int

// Model is a constraint satisfaction/optimization model.
type Model struct {
	names   []string
	domains [][]int
	cons    []Constraint
	// nodeLimit bounds search effort; 0 means unlimited.
	nodeLimit int64
	// metrics, when set, receives every search's effort (see SetMetrics).
	metrics *Metrics
}

// Metrics holds optional observability sinks for the solver. When attached
// to a model (SetMetrics), every Minimize call observes its search effort —
// nodes explored, constraint propagations, bound prunes, and wall time in
// nanoseconds — into the corresponding histograms, so a running controller
// exposes the solver-effort distributions behind the paper's Figure 7/12
// delay curves. Truncated counts the calls the node limit stopped, each of
// which returned an unproven incumbent.
type Metrics struct {
	Nodes        *obs.Histogram
	Propagations *obs.Histogram
	BoundPrunes  *obs.Histogram
	DurationNs   *obs.Histogram
	Truncated    *obs.Counter
}

// NewMetrics registers the solver histograms and counter on reg under the
// p4runpro_solver_* names.
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Nodes:        reg.Histogram("p4runpro_solver_nodes", "Search nodes explored per Minimize call."),
		Propagations: reg.Histogram("p4runpro_solver_propagations", "Constraint feasibility checks per Minimize call."),
		BoundPrunes:  reg.Histogram("p4runpro_solver_bound_prunes", "Subtrees pruned by the objective bound per Minimize call."),
		DurationNs:   reg.Histogram("p4runpro_solver_duration_ns", "Wall time per Minimize call in nanoseconds."),
		Truncated:    reg.Counter("p4runpro_solver_truncated_total", "Minimize calls stopped by the node limit (result not proven optimal)."),
	}
}

// SetMetrics attaches observability sinks filled at the end of every
// Minimize call. Nil (the default) records nothing.
func (m *Model) SetMetrics(mx *Metrics) { m.metrics = mx }

// observe records one search's effort into the attached sinks.
func (mx *Metrics) observe(st Stats) {
	if mx == nil {
		return
	}
	mx.Nodes.Observe(uint64(st.Nodes))
	mx.Propagations.Observe(uint64(st.Propagations))
	mx.BoundPrunes.Observe(uint64(st.BoundPrunes))
	mx.DurationNs.ObserveDuration(st.Duration)
	if !st.Complete {
		mx.Truncated.Inc()
	}
}

// NewModel creates an empty model.
func NewModel() *Model { return &Model{} }

// SetNodeLimit bounds the number of search nodes (0 = unlimited), a safety
// cap. When the limit is hit the best incumbent so far is returned with
// Stats.Complete false, or ErrInfeasible if none was found.
func (m *Model) SetNodeLimit(n int64) { m.nodeLimit = n }

// IntVar adds a variable with the inclusive domain [lo, hi].
func (m *Model) IntVar(name string, lo, hi int) Var {
	dom := make([]int, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		dom = append(dom, v)
	}
	m.names = append(m.names, name)
	m.domains = append(m.domains, dom)
	return Var(len(m.domains) - 1)
}

// Restrict filters a variable's domain with a predicate.
func (m *Model) Restrict(v Var, ok func(int) bool) {
	dom := m.domains[v]
	kept := dom[:0]
	for _, x := range dom {
		if ok(x) {
			kept = append(kept, x)
		}
	}
	m.domains[v] = kept
}

// Domain returns a copy of a variable's current domain.
func (m *Model) Domain(v Var) []int {
	return append([]int(nil), m.domains[v]...)
}

// Add registers a constraint.
func (m *Model) Add(c Constraint) { m.cons = append(m.cons, c) }

// Constraint checks partial assignments. vals[i] is meaningful only when
// set[i] is true. Feasible must be monotone: once it returns false for a
// partial assignment, no extension can make it true.
type Constraint interface {
	Feasible(vals []int, set []bool) bool
	fmt.Stringer
}

// UnaryConstraint is a constraint over exactly one variable. The solver
// applies it once, as a domain restriction before search, instead of
// re-evaluating it at every node (important when the predicate consults
// live resource state behind a lock).
type UnaryConstraint interface {
	Constraint
	Var() Var
	Accepts(v int) bool
}

// IncrementalConstraint can check feasibility knowing only which variable
// was just assigned — the solver assigns variables in index order, so most
// constraints need O(1) work per node instead of a full scan.
type IncrementalConstraint interface {
	Constraint
	FeasibleAt(i int, vals []int, set []bool) bool
}

// Objective scores complete assignments (lower is better) and provides an
// admissible (optimistic) bound for partial ones.
type Objective interface {
	Eval(vals []int) float64
	// Bound returns a lower bound on Eval over all completions of the
	// partial assignment whose final chain variable is at least minLast.
	// The search passes the smallest value it can still take, or a cheaper
	// smaller one first.
	Bound(vals []int, set []bool, minLast int) float64
	fmt.Stringer
}

// Solution is an optimal (or best-found) assignment.
type Solution struct {
	Values    []int
	Objective float64
}

// Stats describes the search effort.
type Stats struct {
	Nodes int64
	// Backtracks counts abandoned assignments for any reason (constraint
	// infeasibility or bound prune); BoundPrunes isolates the subtrees cut
	// by the objective bound, and Propagations counts individual constraint
	// feasibility checks — together the quantities behind the solver-effort
	// histograms in internal/obs.
	Backtracks   int64
	Propagations int64
	BoundPrunes  int64
	Duration     time.Duration
	Complete     bool // false if the node limit truncated the search
}

// Minimize runs branch-and-bound over the model variables in index order
// (the natural order for the allocation chain) and returns the
// lexicographically first minimizing assignment. Before searching, unary
// constraints are folded into the variable domains and the Chain becomes a
// window: x_i's candidates start at x_{i-1}+Gap, so the chain is never
// re-checked. At each node the constraints touching the just-assigned
// variable are re-checked, via their incremental fast path when available,
// and then the chain window is propagated over the unassigned suffix (see
// window). A suffix with no value cuts the subtree; otherwise the window's
// last value is the exact smallest x_L of the chain+unary relaxation, and
// it feeds Objective.Bound. Both cuts only remove subtrees holding no
// strictly better assignment, so the answer is the one an exhaustive
// search returns.
func (m *Model) Minimize(obj Objective) (Solution, Stats, error) {
	start := time.Now()
	n := len(m.domains)
	s := searcher{
		m: m, obj: obj,
		vals: make([]int, n),
		set:  make([]bool, n),
		best: Solution{Objective: math.Inf(1)},
	}
	s.st.Complete = true

	// Pre-restriction: unary constraints become domain filters, the chain
	// becomes the window; the rest are checked per node.
	for _, c := range m.cons {
		switch c := c.(type) {
		case UnaryConstraint:
			m.Restrict(c.Var(), c.Accepts)
			continue
		case Chain:
			if !s.chained || c.Gap > s.gap {
				s.gap = c.Gap
			}
			s.chained = true
			continue
		case SamePhysical:
			s.links = append(s.links, c)
		}
		s.cons = append(s.cons, c)
	}
	for _, dom := range m.domains {
		if len(dom) == 0 {
			s.st.Duration = time.Since(start)
			m.metrics.observe(s.st)
			return Solution{}, s.st, ErrInfeasible
		}
	}

	s.dfs(0)
	s.st.Duration = time.Since(start)
	m.metrics.observe(s.st)
	if math.IsInf(s.best.Objective, 1) {
		return Solution{}, s.st, ErrInfeasible
	}
	return s.best, s.st, nil
}

// searcher is one Minimize call's state. Propagation reads the model's
// sorted domains in place, so a node allocates nothing.
type searcher struct {
	m       *Model
	obj     Objective
	cons    []Constraint   // checked per node: everything but Unary and Chain
	links   []SamePhysical // pins for the window
	gap     int            // the Chain's gap, when chained
	chained bool
	vals    []int
	set     []bool
	best    Solution
	st      Stats
}

// dfs explores assignments of x_i.. in lexicographic order; it returns
// false once the node limit aborts the search.
func (s *searcher) dfs(i int) bool {
	if i == len(s.vals) {
		if v := s.obj.Eval(s.vals); v < s.best.Objective {
			s.best = Solution{Values: append([]int(nil), s.vals...), Objective: v}
		}
		return true
	}
	dom := s.m.domains[i]
	if i > 0 {
		dom = dom[s.floorIndex(dom, s.vals[i-1]):]
	}
	for _, cand := range dom {
		if s.m.nodeLimit > 0 && s.st.Nodes >= s.m.nodeLimit {
			s.st.Complete = false
			return false
		}
		s.st.Nodes++
		s.vals[i], s.set[i] = cand, true
		if !s.feasibleAt(i) {
			s.st.Backtracks++
		} else if cut, byBound := s.prune(i); cut {
			s.st.Backtracks++
			if byBound {
				s.st.BoundPrunes++
			}
		} else if !s.dfs(i + 1) {
			s.set[i] = false
			return false
		}
		s.set[i] = false
	}
	return true
}

// feasibleAt checks the per-node constraints after assigning x_i.
func (s *searcher) feasibleAt(i int) bool {
	for _, c := range s.cons {
		s.st.Propagations++
		if ic, fast := c.(IncrementalConstraint); fast {
			if !ic.FeasibleAt(i, s.vals, s.set) {
				return false
			}
		} else if !c.Feasible(s.vals, s.set) {
			return false
		}
	}
	return true
}

// prune decides whether x_i's subtree can be skipped: cut when it holds no
// completion or the objective bound cannot beat the incumbent (byBound).
// The chain's length alone, x_L >= x_i + (n-1-i)·Gap, gives a first bound
// that costs nothing; only a node that survives it pays for the window.
func (s *searcher) prune(i int) (cut, byBound bool) {
	last := len(s.vals) - 1
	if s.chained && s.obj.Bound(s.vals, s.set, s.vals[i]+(last-i)*s.gap) >= s.best.Objective {
		return true, true
	}
	minLast, ok := s.window(i)
	if !ok {
		return true, false
	}
	return s.obj.Bound(s.vals, s.set, minLast) >= s.best.Objective, true
}

// floorIndex is the index of the first value in the sorted domain dom that
// the chain admits after a predecessor equal to prev.
func (s *searcher) floorIndex(dom []int, prev int) int {
	if !s.chained {
		return 0
	}
	// Values are distinct and ascending, so dom[k] >= dom[0]+k: the answer
	// is at most lo-dom[0], and exactly that when no value below lo is
	// missing — the common case, answered without a search.
	lo := prev + s.gap
	k := min(max(lo-dom[0], 0), len(dom))
	if k == 0 || dom[k-1] < lo {
		return k
	}
	k, _ = slices.BinarySearch(dom[:k], lo)
	return k
}

// window propagates the chain over the unassigned suffix after x_i: each
// variable greedily takes the smallest domain value the chain admits after
// its predecessor's, restricted to x_I + M·k (1 <= k <= R) by every
// SamePhysical link whose first variable x_I is assigned. It returns that
// walk's value for the last variable — the smallest x_L any completion can
// reach — or false when some variable has no value, so no completion exists.
func (s *searcher) window(i int) (int, bool) {
	v := s.vals[i]
	for j := i + 1; j < len(s.vals); j++ {
		dom := s.m.domains[j]
		k := s.floorIndex(dom, v)
		for k < len(dom) && !s.pinned(j, dom[k]) {
			k++
		}
		if k == len(dom) {
			return 0, false
		}
		v = dom[k]
	}
	return v, true
}

// pinned reports whether x_j = v agrees with every SamePhysical link into
// x_j whose first variable is assigned.
func (s *searcher) pinned(j, v int) bool {
	for _, l := range s.links {
		if int(l.J) == j && s.set[l.I] && !l.admits(s.vals[l.I], v) {
			return false
		}
	}
	return true
}
