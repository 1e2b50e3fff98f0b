package smt

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomModel is one seeded allocation-shaped model: n chained variables
// over [1, M*(R+1)], random unary domains, InWindow on some variables and
// 0-2 SamePhysical links. build returns a fresh copy, since Minimize folds
// unary constraints into the domains it is given.
type randomModel struct {
	n, m, w, r, gap int
	keep            [][]bool // keep[i][v]: unary domain of x_i
	window          []bool   // InWindow on x_i
	links           [][2]int
}

func newRandomModel(rng *rand.Rand) randomModel {
	rm := randomModel{n: 1 + rng.Intn(5), m: 3 + rng.Intn(3), r: 1 + rng.Intn(2), gap: 1 + rng.Intn(4)/3}
	rm.w = 1 + rng.Intn(rm.m-1)
	hi := rm.m * (rm.r + 1)
	for i := 0; i < rm.n; i++ {
		k := make([]bool, hi+1)
		dense := rng.Intn(2) == 0
		for v := 1; v <= hi; v++ {
			k[v] = dense || rng.Intn(10) < 7
		}
		rm.keep = append(rm.keep, k)
		rm.window = append(rm.window, rng.Intn(4) == 0)
	}
	if rm.n >= 2 {
		for l := rng.Intn(3); l > 0; l-- {
			i := rng.Intn(rm.n - 1)
			j := i + 1 + rng.Intn(rm.n-1-i)
			rm.links = append(rm.links, [2]int{i, j})
		}
	}
	return rm
}

func (rm randomModel) build() *Model {
	model := NewModel()
	for i := 0; i < rm.n; i++ {
		v := model.IntVar(fmt.Sprintf("x%d", i+1), 1, rm.m*(rm.r+1))
		keep := rm.keep[i]
		model.Add(Unary{V: v, Name: "te", OK: func(x int) bool { return keep[x] }})
		if rm.window[i] {
			model.Add(InWindow{V: v, N: rm.w, M: rm.m})
		}
	}
	model.Add(Chain{Gap: rm.gap})
	for _, l := range rm.links {
		model.Add(SamePhysical{I: Var(l[0]), J: Var(l[1]), M: rm.m, R: rm.r})
	}
	return model
}

// exhaustive enumerates every assignment in lexicographic order and keeps
// the first strictly better one that satisfies every constraint — the
// answer branch-and-bound must reproduce. It drops a prefix only when a
// constraint's full check rejects it (constraints are monotone), and it
// uses no bound.
func exhaustive(m *Model, obj Objective) (Solution, bool) {
	n := len(m.domains)
	vals, set := make([]int, n), make([]bool, n)
	best := Solution{Objective: math.Inf(1)}
	var rec func(i int)
	rec = func(i int) {
		for _, c := range m.cons {
			if !c.Feasible(vals, set) {
				return
			}
		}
		if i == n {
			if v := obj.Eval(vals); v < best.Objective {
				best = Solution{Values: append([]int(nil), vals...), Objective: v}
			}
			return
		}
		for _, v := range m.domains[i] {
			vals[i], set[i] = v, true
			rec(i + 1)
			set[i] = false
		}
	}
	rec(0)
	return best, !math.IsInf(best.Objective, 1)
}

// legacyMinimize is the search before chain-window propagation: every
// domain value is a node, every constraint is re-checked, and the bound sees
// minLast = x_i + (n-1-i). It is the node-count ceiling for Minimize.
func legacyMinimize(m *Model, obj Objective) (Solution, int64, error) {
	n := len(m.domains)
	var search []Constraint
	for _, c := range m.cons {
		if u, ok := c.(UnaryConstraint); ok {
			m.Restrict(u.Var(), u.Accepts)
			continue
		}
		search = append(search, c)
	}
	vals, set := make([]int, n), make([]bool, n)
	best := Solution{Objective: math.Inf(1)}
	var nodes int64
	var dfs func(i int)
	dfs = func(i int) {
		if i == n {
			if v := obj.Eval(vals); v < best.Objective {
				best = Solution{Values: append([]int(nil), vals...), Objective: v}
			}
			return
		}
		for _, cand := range m.domains[i] {
			nodes++
			vals[i], set[i] = cand, true
			ok := true
			for _, c := range search {
				if !c.Feasible(vals, set) {
					ok = false
					break
				}
			}
			minLast := vals[i] + (n - 1 - i)
			if ok && obj.Bound(vals, set, minLast) < best.Objective {
				dfs(i + 1)
			}
			set[i] = false
		}
	}
	dfs(0)
	if math.IsInf(best.Objective, 1) {
		return Solution{}, nodes, ErrInfeasible
	}
	return best, nodes, nil
}

// hierarchical is MinimizeHierarchical's two-step scheme over another
// single-objective solver.
func hierarchical(m *Model, solve func(*Model, Objective) (Solution, int64, error)) (Solution, int64, error) {
	sol, nodes1, err := solve(m, PureLast{})
	if err != nil {
		return Solution{}, nodes1, err
	}
	last := sol.Values[len(sol.Values)-1]
	m.Add(Unary{V: Var(len(sol.Values) - 1), Name: "fix-xL", OK: func(v int) bool { return v == last }})
	sol, nodes2, err := solve(m, NegFirst{})
	return sol, nodes1 + nodes2, err
}

// TestMinimizeMatchesExhaustive: over seeded random allocation-shaped models
// and every objective, Minimize returns exactly the lexicographically first
// optimum an exhaustive enumeration finds, proves it (Complete), and never
// explores more nodes than the search before chain-window propagation.
func TestMinimizeMatchesExhaustive(t *testing.T) {
	const models = 10_000
	objectives := []Objective{Weighted{Alpha: 0.7, Beta: 0.3}, PureLast{}, Ratio{}, nil} // nil: hierarchical
	rng := rand.New(rand.NewSource(1))
	var feasible, linked, r2 int
	for k := 0; k < models; k++ {
		rm := newRandomModel(rng)
		obj := objectives[k%len(objectives)]
		if len(rm.links) > 0 {
			linked++
		}
		if rm.r == 2 {
			r2++
		}

		oracle := func(m *Model, o Objective) (Solution, int64, error) {
			sol, ok := exhaustive(m, o)
			if !ok {
				return Solution{}, 0, ErrInfeasible
			}
			return sol, 0, nil
		}
		var got, want Solution
		var st Stats
		var ceiling int64
		var err, wantErr error
		if obj == nil {
			got, st, err = MinimizeHierarchical(rm.build())
			want, _, wantErr = hierarchical(rm.build(), oracle)
			_, ceiling, _ = hierarchical(rm.build(), legacyMinimize)
		} else {
			got, st, err = rm.build().Minimize(obj)
			want, _, wantErr = oracle(rm.build(), obj)
			_, ceiling, _ = legacyMinimize(rm.build(), obj)
		}
		if !st.Complete {
			t.Fatalf("model %d: unlimited search reported incomplete", k)
		}
		if wantErr != nil {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("model %d %+v obj %v: got %v %v, want infeasible", k, rm, obj, got, err)
			}
		} else {
			feasible++
			if err != nil || got.Objective != want.Objective || fmt.Sprint(got.Values) != fmt.Sprint(want.Values) {
				t.Fatalf("model %d %+v obj %v: got %v (%v), want %v", k, rm, obj, got, err, want)
			}
		}
		if st.Nodes > ceiling {
			t.Fatalf("model %d %+v obj %v: %d nodes, legacy search %d", k, rm, obj, st.Nodes, ceiling)
		}
	}
	// The draw must exercise what the propagation handles.
	t.Logf("%d models: %d feasible, %d linked, %d with R=2", models, feasible, linked, r2)
	if feasible < models/2 || linked < models/4 || r2 < models/4 {
		t.Fatalf("weak draw: %d feasible, %d linked, %d with R=2 of %d", feasible, linked, r2, models)
	}
}
