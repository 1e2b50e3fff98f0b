package smt

import (
	"errors"
	"testing"
	"testing/quick"
)

// buildAllocModel constructs a model shaped like the compiler's: L chained
// variables over [1, M*(R+1)], with optional window and link constraints.
func buildAllocModel(l, m, r int) (*Model, []Var) {
	model := NewModel()
	vars := make([]Var, l)
	for i := 0; i < l; i++ {
		vars[i] = model.IntVar("x", 1, m*(r+1))
	}
	model.Add(Chain{Gap: 1})
	return model, vars
}

func TestMinimizeSimpleChain(t *testing.T) {
	model, _ := buildAllocModel(5, 22, 1)
	sol, st, err := model.Minimize(PureLast{})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3, 4, 5}
	for i, v := range sol.Values {
		if v != want[i] {
			t.Fatalf("values = %v", sol.Values)
		}
	}
	if sol.Objective != 5 {
		t.Errorf("objective = %f", sol.Objective)
	}
	if st.Nodes == 0 || !st.Complete {
		t.Errorf("stats = %+v", st)
	}
}

func TestWeightedPullsFirstUp(t *testing.T) {
	// With beta weighting x_1, the solver should trade a later start for
	// the same end when a window forces x_3 >= 10.
	model, vars := buildAllocModel(3, 22, 0)
	model.Add(Unary{V: vars[2], Name: "late", OK: func(v int) bool { return v >= 10 }})
	sol, _, err := model.Minimize(Weighted{Alpha: 0.7, Beta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Values[2] != 10 {
		t.Errorf("x3 = %d, want 10", sol.Values[2])
	}
	if sol.Values[0] != 8 {
		t.Errorf("x1 = %d, want 8 (maximized under the chain)", sol.Values[0])
	}
}

func TestRatioObjective(t *testing.T) {
	model, vars := buildAllocModel(3, 22, 0)
	model.Add(Unary{V: vars[2], Name: "late", OK: func(v int) bool { return v >= 10 }})
	sol, _, err := model.Minimize(Ratio{})
	if err != nil {
		t.Fatal(err)
	}
	// The ratio objective prefers the latest feasible placement: (20,21,22)
	// scores 22/20 = 1.1, beating the earliest window solution 10/8 = 1.25.
	// This is exactly the egress-spreading behaviour Appendix C credits f3
	// with.
	if got := sol.Values[0]; got != 20 {
		t.Errorf("x1 = %d, want 20", got)
	}
	if sol.Objective != 22.0/20.0 {
		t.Errorf("objective = %f", sol.Objective)
	}
}

func TestHierarchical(t *testing.T) {
	model, vars := buildAllocModel(3, 22, 0)
	model.Add(Unary{V: vars[2], Name: "late", OK: func(v int) bool { return v >= 10 }})
	sol, st, err := MinimizeHierarchical(model)
	if err != nil {
		t.Fatal(err)
	}
	// First minimize x_L (10), then maximize x_1 (8).
	if sol.Values[2] != 10 || sol.Values[0] != 8 {
		t.Errorf("values = %v", sol.Values)
	}
	if st.Nodes == 0 {
		t.Error("no nodes counted")
	}
}

func TestInWindowConstraint(t *testing.T) {
	// M=22, N=10: logical values 1..10 and 23..32 are ingress.
	model, vars := buildAllocModel(12, 22, 1)
	model.Add(InWindow{V: vars[11], N: 10, M: 22})
	sol, _, err := model.Minimize(PureLast{})
	if err != nil {
		t.Fatal(err)
	}
	last := sol.Values[11]
	if phys := (last-1)%22 + 1; phys > 10 {
		t.Errorf("x12 = %d (phys %d) not in ingress", last, phys)
	}
	// Chain forces x12 >= 12, so the window must push it to pass 1.
	if last != 23 {
		t.Errorf("x12 = %d, want 23", last)
	}
}

func TestSamePhysicalConstraint(t *testing.T) {
	model, vars := buildAllocModel(4, 22, 1)
	model.Add(SamePhysical{I: vars[0], J: vars[3], M: 22, R: 1})
	sol, _, err := model.Minimize(PureLast{})
	if err != nil {
		t.Fatal(err)
	}
	d := sol.Values[3] - sol.Values[0]
	if d != 22 {
		t.Errorf("x4-x1 = %d, want 22 (same physical RPB, next pass)", d)
	}
}

func TestInfeasible(t *testing.T) {
	// Chain of 23 within 22 values.
	model, _ := buildAllocModel(23, 22, 0)
	_, _, err := model.Minimize(PureLast{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
	// Empty domain via unary.
	model2, vars := buildAllocModel(3, 22, 0)
	model2.Add(Unary{V: vars[1], Name: "never", OK: func(int) bool { return false }})
	_, _, err = model2.Minimize(PureLast{})
	if !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
}

// rejectComplete admits every partial assignment and no complete one: the
// window cannot see it, so only enumeration finds out.
type rejectComplete struct{}

func (rejectComplete) Feasible(vals []int, set []bool) bool {
	for _, s := range set {
		if !s {
			return true
		}
	}
	return false
}

func (rejectComplete) String() string { return "reject-complete" }

func TestNodeLimitTruncation(t *testing.T) {
	model, _ := buildAllocModel(10, 22, 1)
	model.Add(rejectComplete{})
	model.SetNodeLimit(50)
	_, st, err := model.Minimize(Ratio{})
	if st.Complete || st.Nodes != 50 || !errors.Is(err, ErrInfeasible) {
		t.Errorf("50-node limit: stats %+v, err %v", st, err)
	}
}

func TestRestrictAndDomain(t *testing.T) {
	model := NewModel()
	v := model.IntVar("v", 1, 10)
	model.Restrict(v, func(x int) bool { return x%2 == 0 })
	dom := model.Domain(v)
	if len(dom) != 5 || dom[0] != 2 || dom[4] != 10 {
		t.Errorf("domain = %v", dom)
	}
}

// TestObjectiveBoundsAdmissible: for random chains and windows, every
// objective's Bound at the root must not exceed the optimal value it later
// reports (admissibility — otherwise branch-and-bound could prune the
// optimum).
func TestObjectiveBoundsAdmissible(t *testing.T) {
	objectives := []Objective{Weighted{Alpha: 0.7, Beta: 0.3}, PureLast{}, Ratio{}, NegFirst{}}
	f := func(lRaw, winRaw uint8) bool {
		l := 2 + int(lRaw)%4
		win := 1 + int(winRaw)%20
		for _, obj := range objectives {
			model, vars := buildAllocModel(l, 22, 1)
			model.SetNodeLimit(200000)
			model.Add(Unary{V: vars[l-1], Name: "w", OK: func(v int) bool { return v >= win }})
			sol, _, err := model.Minimize(obj)
			if err != nil {
				continue
			}
			vals := make([]int, l)
			set := make([]bool, l)
			rootBound := obj.Bound(vals, set, l)
			if rootBound > sol.Objective+1e-9 {
				t.Logf("%v: root bound %f > optimum %f (L=%d win=%d)", obj, rootBound, sol.Objective, l, win)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSolutionsSatisfyConstraints: solver output always passes every
// constraint's full check.
func TestSolutionsSatisfyConstraints(t *testing.T) {
	f := func(lRaw, winRaw, linkRaw uint8) bool {
		l := 3 + int(lRaw)%5
		win := int(winRaw) % l
		model, vars := buildAllocModel(l, 22, 1)
		model.SetNodeLimit(200000)
		cons := []Constraint{Chain{Gap: 1}, InWindow{V: vars[win], N: 10, M: 22}}
		model.Add(cons[1])
		if l >= 4 && linkRaw%2 == 0 {
			sp := SamePhysical{I: vars[0], J: vars[l-1], M: 22, R: 1}
			model.Add(sp)
			cons = append(cons, sp)
		}
		sol, _, err := model.Minimize(Weighted{Alpha: 0.7, Beta: 0.3})
		if err != nil {
			return true // infeasible combinations are fine
		}
		set := make([]bool, l)
		for i := range set {
			set[i] = true
		}
		for _, c := range cons {
			if !c.Feasible(sol.Values, set) {
				t.Logf("constraint %v violated by %v", c, sol.Values)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestObjectiveOrderingCost: the nonlinear ratio objective explores at
// least as many nodes as the weighted linear one on the same model — the
// mechanism behind Figure 12's delay ordering.
func TestObjectiveOrderingCost(t *testing.T) {
	mk := func() *Model {
		model, vars := buildAllocModel(9, 22, 1)
		model.SetNodeLimit(2_000_000)
		model.Add(InWindow{V: vars[5], N: 10, M: 22})
		model.Add(InWindow{V: vars[8], N: 10, M: 22})
		return model
	}
	_, stLinear, err := mk().Minimize(Weighted{Alpha: 0.7, Beta: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	_, stRatio, err := mk().Minimize(Ratio{})
	if err != nil {
		t.Fatal(err)
	}
	if stRatio.Nodes < stLinear.Nodes {
		t.Errorf("ratio nodes %d < linear nodes %d", stRatio.Nodes, stLinear.Nodes)
	}
}

func TestConstraintStrings(t *testing.T) {
	for _, c := range []Constraint{
		Chain{Gap: 1},
		Unary{V: 2, Name: "te"},
		InWindow{V: 1, N: 10, M: 22},
		SamePhysical{I: 0, J: 3, M: 22, R: 1},
	} {
		if c.String() == "" {
			t.Errorf("%T has empty String", c)
		}
	}
	for _, o := range []Objective{Weighted{}, PureLast{}, Ratio{}, NegFirst{}} {
		if o.String() == "" {
			t.Errorf("%T has empty String", o)
		}
	}
}
