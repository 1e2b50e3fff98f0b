package smt

import "fmt"

// Chain enforces vals[i] + Gap <= vals[i+1] for consecutive variables — the
// paper's constraint (1), primitive execution dependency.
type Chain struct {
	Gap int
}

// Feasible implements Constraint.
func (c Chain) Feasible(vals []int, set []bool) bool {
	prev, have := 0, false
	for i := range vals {
		if !set[i] {
			have = false
			continue
		}
		if have && vals[i] < prev+c.Gap {
			return false
		}
		prev, have = vals[i], true
	}
	return true
}

// FeasibleAt implements IncrementalConstraint: with in-order assignment,
// only the predecessor matters.
func (c Chain) FeasibleAt(i int, vals []int, set []bool) bool {
	if i == 0 || !set[i-1] {
		return true
	}
	return vals[i] >= vals[i-1]+c.Gap
}

func (c Chain) String() string { return fmt.Sprintf("chain(gap=%d)", c.Gap) }

// Unary restricts one variable with a feasibility predicate — used for the
// paper's constraints (2) and (3): te_req(x) <= te_free(x) and
// mem_req(x) <= mem_free(x).
type Unary struct {
	V    Var
	Name string
	OK   func(int) bool
}

// Feasible implements Constraint.
func (u Unary) Feasible(vals []int, set []bool) bool {
	if !set[u.V] {
		return true
	}
	return u.OK(vals[u.V])
}

// Var implements UnaryConstraint.
func (u Unary) Var() Var { return u.V }

// Accepts implements UnaryConstraint.
func (u Unary) Accepts(v int) bool { return u.OK(v) }

func (u Unary) String() string { return fmt.Sprintf("unary(%s@x%d)", u.Name, int(u.V)) }

// InWindow restricts a variable to logical stages whose physical stage lies
// in [1, N] modulo the pass length M — the paper's constraint (4):
// forwarding primitives execute only in ingress RPBs, in any recirculation
// pass. Values are 1-based logical RPB numbers.
type InWindow struct {
	V Var
	N int // ingress RPBs per pass
	M int // total RPBs per pass
}

// Feasible implements Constraint.
func (w InWindow) Feasible(vals []int, set []bool) bool {
	if !set[w.V] {
		return true
	}
	phys := (vals[w.V]-1)%w.M + 1
	return phys >= 1 && phys <= w.N
}

// Var implements UnaryConstraint.
func (w InWindow) Var() Var { return w.V }

// Accepts implements UnaryConstraint.
func (w InWindow) Accepts(v int) bool {
	phys := (v-1)%w.M + 1
	return phys >= 1 && phys <= w.N
}

func (w InWindow) String() string { return fmt.Sprintf("ingress(x%d)", int(w.V)) }

// SamePhysical links two variables to the same physical RPB in a strictly
// later pass — the paper's constraint (5): the hardware cannot access the
// same stateful memory from two different stages, so sequential operations
// on one virtual memory must revisit the same physical RPB via
// recirculation: x_j = x_i + M*k, 1 <= k <= R.
type SamePhysical struct {
	I, J Var
	M    int
	R    int
}

// Feasible implements Constraint.
func (s SamePhysical) Feasible(vals []int, set []bool) bool {
	if !set[s.I] || !set[s.J] {
		return true
	}
	return s.admits(vals[s.I], vals[s.J])
}

// admits reports whether x_j = xj is xi + M*k for some 1 <= k <= R.
func (s SamePhysical) admits(xi, xj int) bool {
	d := xj - xi
	if d <= 0 || d%s.M != 0 {
		return false
	}
	k := d / s.M
	return k >= 1 && k <= s.R
}

// FeasibleAt implements IncrementalConstraint.
func (s SamePhysical) FeasibleAt(i int, vals []int, set []bool) bool {
	if Var(i) != s.I && Var(i) != s.J {
		return true
	}
	return s.Feasible(vals, set)
}

func (s SamePhysical) String() string {
	return fmt.Sprintf("samephys(x%d,x%d,M=%d,R=%d)", int(s.I), int(s.J), s.M, s.R)
}

// SameValue forces two variables equal — used to co-locate primitives that
// must share one RPB (e.g. aligned memory operations across branches at the
// same depth are merged before model construction; this constraint covers
// cases where two separate depths must coincide is not allowed by Chain, so
// it is chiefly used in tests and alternative formulations).
type SameValue struct {
	I, J Var
}

// Feasible implements Constraint.
func (s SameValue) Feasible(vals []int, set []bool) bool {
	if !set[s.I] || !set[s.J] {
		return true
	}
	return vals[s.I] == vals[s.J]
}

// FeasibleAt implements IncrementalConstraint.
func (s SameValue) FeasibleAt(i int, vals []int, set []bool) bool {
	if Var(i) != s.I && Var(i) != s.J {
		return true
	}
	return s.Feasible(vals, set)
}

func (s SameValue) String() string { return fmt.Sprintf("eq(x%d,x%d)", int(s.I), int(s.J)) }
