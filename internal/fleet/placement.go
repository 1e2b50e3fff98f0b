package fleet

import (
	"cmp"
	"slices"
	"strings"
)

// MemberView is a placement candidate: a healthy member's aggregate
// headroom from its last utilization probe. rank orders by it; whether a
// unit fits is the member's own plan's answer, not the view's.
type MemberView struct {
	Name string
	// Headroom scores remaining capacity in [0,1]: the mean of the
	// free-entry and free-memory fractions.
	Headroom float64
	Units    int // fleet units already assigned here
}

// rank orders healthy members for one unit placement, in preference
// order: fewest assigned units, then most headroom, then name — so load
// and blast radius stay even. The fleet asks members for a plan in that
// order and takes the first that can link the unit, until it holds the
// unit's replicas.
func rank(members []MemberView) []string {
	sorted := slices.Clone(members)
	slices.SortFunc(sorted, func(a, b MemberView) int {
		return cmp.Or(cmp.Compare(a.Units, b.Units), cmp.Compare(b.Headroom, a.Headroom), strings.Compare(a.Name, b.Name))
	})
	out := make([]string, len(sorted))
	for i, m := range sorted {
		out[i] = m.Name
	}
	return out
}
