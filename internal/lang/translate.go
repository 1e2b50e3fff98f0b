package lang

import (
	"fmt"
	"sort"
)

// TProgram is a translated program: pseudo primitives expanded, offset steps
// inserted, cross-branch memory operations aligned, and every primitive
// assigned an execution depth (the x_i index of the allocation model) and a
// branch ID.
type TProgram struct {
	Name     string
	Filters  []Filter
	Memories []MemDecl // declared blocks referenced by the program
	Depths   []*Depth  // Depths[0] is execution depth 1
	// MemLinks lists (i, j) depth pairs (1-based, i<j) of sequential
	// accesses to the same virtual memory along one path; the allocator
	// must place them in the same physical RPB across recirculation
	// passes (§4.3 constraint 5).
	MemLinks [][2]int
	// NumBranchIDs counts allocated branch IDs including the root (0).
	NumBranchIDs int
	Source       *Program
}

// Depth is the set of translated items executing at one depth. Items from
// different branches share the depth (and therefore the RPB).
type Depth struct {
	Items []*TItem
}

// TItem is one translated primitive bound to a branch.
type TItem struct {
	BranchID int
	Prim     *Prim
	CaseIDs  []int // for OpBranch: new branch ID per case, parallel to Prim.Cases
}

// L returns the program's depth count (the L of the allocation model).
func (t *TProgram) L() int { return len(t.Depths) }

// EntriesAt returns the RPB table entries required at a 1-based depth: one
// per primitive item, and one per case block for BRANCH items.
func (t *TProgram) EntriesAt(depth int) int {
	n := 0
	for _, it := range t.Depths[depth-1].Items {
		switch it.Prim.Op {
		case OpBranch:
			n += len(it.Prim.Cases)
		case OpNop:
			// A NOP needs no entry: an RPB miss already does nothing.
		default:
			n++
		}
	}
	return n
}

// TotalEntries sums EntriesAt over all depths (initialization-block filter
// entries and recirculation entries are accounted separately by the
// compiler).
func (t *TProgram) TotalEntries() int {
	n := 0
	for d := 1; d <= t.L(); d++ {
		n += t.EntriesAt(d)
	}
	return n
}

// ForwardingAt reports whether any item at the 1-based depth is a
// forwarding primitive (restricted to ingress RPBs).
func (t *TProgram) ForwardingAt(depth int) bool {
	for _, it := range t.Depths[depth-1].Items {
		if it.Prim.Op.IsForwarding() {
			return true
		}
	}
	return false
}

// MemoriesAt returns the names of virtual memories whose buckets must be
// resident in the RPB executing the 1-based depth (i.e. accessed by a
// memory primitive there).
func (t *TProgram) MemoriesAt(depth int) []string {
	seen := map[string]bool{}
	var out []string
	for _, it := range t.Depths[depth-1].Items {
		if it.Prim.Op.IsMemory() && !seen[it.Prim.Mem] {
			seen[it.Prim.Mem] = true
			out = append(out, it.Prim.Mem)
		}
	}
	sort.Strings(out)
	return out
}

// FirstAccessDepth returns the 1-based depth of the first memory primitive
// touching each declared memory, which determines the block's physical RPB.
// A block referenced only by hash primitives (its address space used but
// its buckets driven purely by the control plane) falls back to the first
// primitive naming it.
func (t *TProgram) FirstAccessDepth() map[string]int {
	out := map[string]int{}
	for d := 1; d <= t.L(); d++ {
		for _, name := range t.MemoriesAt(d) {
			if _, ok := out[name]; !ok {
				out[name] = d
			}
		}
	}
	for _, md := range t.Memories {
		if _, ok := out[md.Name]; ok {
			continue
		}
		for d := 1; d <= t.L() && out[md.Name] == 0; d++ {
			for _, it := range t.Depths[d-1].Items {
				if it.Prim.Mem == md.Name {
					out[md.Name] = d
					break
				}
			}
		}
	}
	return out
}

const regMax = ^uint32(0)

// Translate runs the full pre-allocation pipeline on a checked program:
// pseudo-primitive expansion with supportive-register backup elision,
// offset-step insertion, cross-branch memory alignment with NOP padding,
// and depth / branch-ID assignment.
func Translate(prog *Program, mems []MemDecl) (*TProgram, error) {
	declared := map[string]MemDecl{}
	for _, m := range mems {
		declared[m.Name] = m
	}
	body := expandList(cloneList(prog.Body))
	body = insertOffsets(body)
	root := &Case{Body: body}

	// Alignment loop: assign depths, find same-(vmem, occurrence) accesses
	// in exclusive branches at different depths, pad the shallow side with
	// NOPs, and repeat to fixpoint.
	var asn *assignment
	for iter := 0; ; iter++ {
		if iter > 1000 {
			return nil, fmt.Errorf("lang: %s: memory alignment did not converge", prog.Name)
		}
		asn = assignDepths(root)
		if !padForAlignment(asn) {
			break
		}
	}

	tp := &TProgram{
		Name:         prog.Name,
		Filters:      prog.Filters,
		MemLinks:     asn.memLinks(),
		NumBranchIDs: asn.nextBranch,
		Source:       prog,
	}
	used := map[string]bool{}
	tp.Depths = make([]*Depth, asn.maxDepth)
	for i := range tp.Depths {
		tp.Depths[i] = &Depth{}
	}
	for _, it := range asn.items {
		tp.Depths[it.depth-1].Items = append(tp.Depths[it.depth-1].Items, &TItem{
			BranchID: it.branch,
			Prim:     it.prim,
			CaseIDs:  it.caseIDs,
		})
		if it.prim.Mem != "" {
			used[it.prim.Mem] = true
		}
	}
	for name := range used {
		m, ok := declared[name]
		if !ok {
			return nil, fmt.Errorf("lang: %s: memory %q not declared", prog.Name, name)
		}
		tp.Memories = append(tp.Memories, m)
	}
	sort.Slice(tp.Memories, func(i, j int) bool { return tp.Memories[i].Name < tp.Memories[j].Name })
	return tp, nil
}

func cloneList(list []Stmt) []Stmt {
	out := make([]Stmt, len(list))
	for i, s := range list {
		p := s.(*Prim)
		q := *p
		if p.Cases != nil {
			q.Cases = make([]*Case, len(p.Cases))
			for k, c := range p.Cases {
				cc := *c
				cc.Body = cloneList(c.Body)
				q.Cases[k] = &cc
			}
		}
		out[i] = &q
	}
	return out
}

// expandList replaces pseudo primitives with their hardware expansions
// (paper Appendix A.2), recursing into case bodies.
func expandList(list []Stmt) []Stmt {
	var out []Stmt
	for i, s := range list {
		p := s.(*Prim)
		if p.Op == OpBranch {
			for _, c := range p.Cases {
				c.Body = expandList(c.Body)
			}
			out = append(out, p)
			continue
		}
		if !p.Op.IsPseudo() {
			out = append(out, p)
			continue
		}
		out = append(out, expandPseudo(p, list[i+1:])...)
	}
	return out
}

// expandPseudo translates one pseudo primitive. rest is the remainder of the
// enclosing statement list, used for the register-lifetime analysis that
// elides the supportive-register backup once the register is no longer live
// (paper §4.2).
func expandPseudo(p *Prim, rest []Stmt) []Stmt {
	mk := func(op Op, r0, r1 Reg, imm uint32) *Prim {
		return &Prim{Op: op, R0: r0, R1: r1, Imm: imm, Pos: p.Pos}
	}
	support := supportReg(p.R0, p.R1)
	var seq []*Prim
	usesC := false
	switch p.Op {
	case OpMove: // A = B
		seq = []*Prim{mk(OpLoadI, p.R0, RegNone, 0), mk(OpAdd, p.R0, p.R1, 0)}
	case OpAddI:
		usesC = true
		seq = []*Prim{mk(OpLoadI, support, RegNone, p.Imm), mk(OpAdd, p.R0, support, 0)}
	case OpAndI:
		usesC = true
		seq = []*Prim{mk(OpLoadI, support, RegNone, p.Imm), mk(OpAnd, p.R0, support, 0)}
	case OpXorI:
		usesC = true
		seq = []*Prim{mk(OpLoadI, support, RegNone, p.Imm), mk(OpXor, p.R0, support, 0)}
	case OpNot:
		usesC = true
		seq = []*Prim{mk(OpLoadI, support, RegNone, regMax), mk(OpXor, p.R0, support, 0)}
	case OpEqual: // A = 0 iff A == B
		seq = []*Prim{mk(OpXor, p.R0, p.R1, 0)}
	case OpSgt: // A = 0 if A >= B
		seq = []*Prim{mk(OpMin, p.R0, p.R1, 0), mk(OpXor, p.R0, p.R1, 0)}
	case OpSlt: // A = 0 if A <= B
		seq = []*Prim{mk(OpMax, p.R0, p.R1, 0), mk(OpXor, p.R0, p.R1, 0)}
	case OpSub:
		// A - B = A + ~B + 1 via the ALU's addition-overflow behaviour.
		// The paper's Figure 14 folds the +1 into the final ADD of the
		// complement constant; with a pure load-immediate LOADI the exact
		// sequence needs the explicit +1 step, verified by property tests.
		usesC = true
		seq = []*Prim{
			mk(OpLoadI, support, RegNone, regMax),
			mk(OpXor, p.R1, support, 0), // B = ~B
			mk(OpAdd, p.R0, p.R1, 0),    // A += ~B
			mk(OpXor, p.R1, support, 0), // restore B
			mk(OpLoadI, support, RegNone, 1),
			mk(OpAdd, p.R0, support, 0), // A += 1
		}
	case OpSubI:
		// A - i = A + (m - i + 1): the control plane pre-computes the
		// two's complement of the immediate.
		usesC = true
		seq = []*Prim{
			mk(OpLoadI, support, RegNone, regMax-p.Imm+1),
			mk(OpAdd, p.R0, support, 0),
		}
	default:
		return []Stmt{p}
	}
	out := make([]Stmt, 0, len(seq)+2)
	if usesC && liveAfter(rest, support) {
		out = append(out, mk(OpBackup, support, RegNone, 0))
		for _, q := range seq {
			out = append(out, q)
		}
		out = append(out, mk(OpRestore, support, RegNone, 0))
		return out
	}
	for _, q := range seq {
		out = append(out, q)
	}
	return out
}

// supportReg picks the first register not used by the pseudo primitive.
func supportReg(a, b Reg) Reg {
	for _, r := range []Reg{HAR, SAR, MAR} {
		if r != a && r != b {
			return r
		}
	}
	return HAR // unreachable: at most two distinct argument registers
}

// liveAfter reports whether register r is read before being overwritten in
// the remaining statements of the current branch path. BRANCH inspects all
// three registers, so reaching one keeps r live.
func liveAfter(rest []Stmt, r Reg) bool {
	for _, s := range rest {
		p := s.(*Prim)
		if p.readsReg(r) {
			return true
		}
		if p.writesReg(r) {
			return false
		}
	}
	return false
}

// insertOffsets places the address-translation offset step immediately
// before every memory primitive (paper §4.1.2: the offset step runs in its
// own RPB action just before the memory operation, storing the physical
// address in an extra PHV field and setting the SALU flag).
func insertOffsets(list []Stmt) []Stmt {
	var out []Stmt
	for _, s := range list {
		p := s.(*Prim)
		if p.Op == OpBranch {
			for _, c := range p.Cases {
				c.Body = insertOffsets(c.Body)
			}
			out = append(out, p)
			continue
		}
		if p.Op.IsMemory() {
			out = append(out, &Prim{Op: OpOffset, Mem: p.Mem, Pos: p.Pos})
		}
		out = append(out, p)
	}
	return out
}
