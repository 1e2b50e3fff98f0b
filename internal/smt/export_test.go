package smt

// Domain returns a copy of a variable's current domain.
func (m *Model) Domain(v Var) []int {
	return append([]int(nil), m.domains[v]...)
}
