package fleet

import (
	"fmt"
	"sort"
)

// MemberView is a placement candidate: a healthy member's aggregate
// headroom from its last utilization probe. Policies rank by it; whether a
// unit fits is the member's own plan's answer, not the view's.
type MemberView struct {
	Name string
	// Headroom scores remaining capacity in [0,1]: the mean of the
	// free-entry and free-memory fractions.
	Headroom float64
	Units    int // fleet units already assigned here
}

// Policy ranks healthy members for one unit placement, in preference
// order; the fleet asks them for a plan in that order and takes the first
// that can link the unit.
type Policy interface {
	Name() string
	Place(members []MemberView) []string
}

func rank(members []MemberView, less func(a, b MemberView) bool) []string {
	sorted := append([]MemberView(nil), members...)
	sort.SliceStable(sorted, func(i, j int) bool { return less(sorted[i], sorted[j]) })
	out := make([]string, len(sorted))
	for i, m := range sorted {
		out[i] = m.Name
	}
	return out
}

// BestFit packs: it prefers the member with the least headroom, keeping
// other members free for large future programs.
type BestFit struct{}

// Name identifies the policy.
func (BestFit) Name() string { return "best-fit" }

// Place ranks members by ascending headroom.
func (BestFit) Place(members []MemberView) []string {
	return rank(members, func(a, b MemberView) bool {
		if a.Headroom != b.Headroom {
			return a.Headroom < b.Headroom
		}
		return a.Name < b.Name // deterministic tie break
	})
}

// Spread balances: it prefers the member with the most headroom, breaking
// ties toward fewer assigned units, so load and blast radius stay even.
type Spread struct{}

// Name identifies the policy.
func (Spread) Name() string { return "spread" }

// Place ranks members by ascending assigned units, then descending
// headroom.
func (Spread) Place(members []MemberView) []string {
	return rank(members, func(a, b MemberView) bool {
		if a.Units != b.Units {
			return a.Units < b.Units
		}
		if a.Headroom != b.Headroom {
			return a.Headroom > b.Headroom
		}
		return a.Name < b.Name
	})
}

// ReplicateK deploys every unit to K members (ranked by the wrapped
// policy, Spread when nil), so any single member failure leaves K-1 live
// replicas for reads and an immediate failover source of truth.
type ReplicateK struct {
	K    int
	Base Policy
}

// Name identifies the policy.
func (r ReplicateK) Name() string { return fmt.Sprintf("replicate-%d", r.K) }

// Place defers ranking to the base policy; the fleet takes K winners.
func (r ReplicateK) Place(members []MemberView) []string {
	base := r.Base
	if base == nil {
		base = Spread{}
	}
	return base.Place(members)
}

// TopologyAware places programs where their traffic enters the network: it
// ranks members by descending observed edge traffic (packets
// received on non-fabric ports, from a signal the caller supplies), so a
// heavy-hitter or cache program lands on the leaf its flows arrive at
// instead of a random member. Members the signal knows nothing about rank
// last; ties (including an absent signal) defer to Base (Spread when nil).
type TopologyAware struct {
	// Traffic returns packets observed entering the network per member
	// name. Called once per Deploy and once per reconcile pass; may be nil.
	Traffic func() map[string]uint64
	Base    Policy
}

// Name identifies the policy.
func (TopologyAware) Name() string { return "topology-aware" }

// Place ranks members by descending edge traffic, deferring ties to the
// base policy's order.
func (t TopologyAware) Place(members []MemberView) []string {
	base := t.Base
	if base == nil {
		base = Spread{}
	}
	ranked := base.Place(members)
	var traffic map[string]uint64
	if t.Traffic != nil {
		traffic = t.Traffic()
	}
	if len(traffic) == 0 {
		return ranked
	}
	// Stable, so members with equal traffic keep the base policy's order.
	sort.SliceStable(ranked, func(i, j int) bool { return traffic[ranked[i]] > traffic[ranked[j]] })
	return ranked
}

// replicas returns how many members a policy wants for one unit.
func replicas(p Policy) int {
	if r, ok := p.(ReplicateK); ok && r.K > 1 {
		return r.K
	}
	return 1
}
