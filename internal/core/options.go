// Package core implements the P4runpro compiler (paper §4.3): it parses and
// checks P4runpro programs, translates them (via internal/lang), computes a
// resource allocation with the SMT formulation of §4.3 over the solver in
// internal/smt, generates table entries, and consistently links programs to
// — or revokes them from — the running data plane without disturbing traffic
// or other programs.
package core

import (
	"fmt"

	"p4runpro/internal/smt"
)

// ObjectiveKind selects the allocation objective (§6.2.4 / Appendix C).
type ObjectiveKind int

// Objectives.
const (
	// ObjF1 is f1(x) = alpha*x_L - beta*x_1, the prototype default.
	ObjF1 ObjectiveKind = iota
	// ObjF2 is f2(x) = x_L.
	ObjF2
	// ObjF3 is f3(x) = x_L / x_1 (nonlinear; best utilization, slowest).
	ObjF3
	// ObjHierarchical first minimizes x_L, then maximizes x_1.
	ObjHierarchical
)

func (o ObjectiveKind) String() string {
	switch o {
	case ObjF1:
		return "f1"
	case ObjF2:
		return "f2"
	case ObjF3:
		return "f3"
	case ObjHierarchical:
		return "hierarchical"
	}
	return fmt.Sprintf("objective(%d)", int(o))
}

// Options configures the compiler.
type Options struct {
	// MaxRecirc is R, the maximum recirculation iterations (prototype: 1).
	MaxRecirc int
	// Objective selects the allocation objective function.
	Objective ObjectiveKind
	// Alpha and Beta weight ObjF1 (prototype: 0.7 / 0.3).
	Alpha, Beta float64
	// NodeLimit caps solver search nodes (0 = unlimited).
	NodeLimit int64
}

// DefaultOptions returns the prototype configuration (§6.2).
func DefaultOptions() Options {
	return Options{
		MaxRecirc: 1,
		Objective: ObjF1,
		Alpha:     0.7,
		Beta:      0.3,
		NodeLimit: 2_000_000,
	}
}

func (o Options) objective() smt.Objective {
	switch o.Objective {
	case ObjF2:
		return smt.PureLast{}
	case ObjF3:
		return smt.Ratio{}
	default:
		return smt.Weighted{Alpha: o.Alpha, Beta: o.Beta}
	}
}
