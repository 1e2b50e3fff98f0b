package lang

import (
	"fmt"
	"strings"
)

// File is a parsed P4runpro source file: memory annotations followed by one
// or more program declarations.
type File struct {
	Memories []MemDecl
	Programs []*Program
}

// MemDecl is an `@ name size` annotation requesting a virtual memory block
// of size 32-bit words.
type MemDecl struct {
	Name string
	Size uint32
	Pos  Pos
}

// Program is one `program name(filter, ...) { ... }` declaration.
type Program struct {
	Name    string
	Filters []Filter
	Body    []Stmt
	Pos     Pos
}

// Filter is one `<FIELD, VALUE, MASK>` traffic-filtering tuple. The
// initialization block matches Field against Value under Mask to assign the
// program ID (paper §4.1.1).
type Filter struct {
	Field string
	Value uint32
	Mask  uint32
	Pos   Pos
}

// Stmt is a program statement: either a primitive invocation or a BRANCH.
type Stmt interface {
	stmtNode()
}

// Prim is a primitive invocation statement (and, after translation, a
// hardware atomic operation).
type Prim struct {
	Op    Op
	Field string // ArgField ops
	R0    Reg    // first register operand
	R1    Reg    // second register operand
	Imm   uint32 // immediate operand
	Mem   string // memory identifier
	Port  uint32 // FORWARD egress port
	Pos   Pos

	// Cases is populated for OpBranch only.
	Cases []*Case

	// Elastic marks entries that correspond to non-constant table entries
	// in the P4 context (variable-count case blocks); they are excluded
	// from LoC accounting (paper §6.1).
	Elastic bool
}

func (*Prim) stmtNode() {}

func (p *Prim) String() string {
	var b strings.Builder
	b.WriteString(p.Op.String())
	var args []string
	if p.Field != "" {
		args = append(args, p.Field)
	}
	if p.R0 != RegNone {
		args = append(args, p.R0.String())
	}
	if p.R1 != RegNone {
		args = append(args, p.R1.String())
	}
	if p.Mem != "" {
		args = append(args, p.Mem)
	}
	switch p.Op {
	case OpLoadI, OpAddI, OpAndI, OpXorI, OpSubI, OpOffset, OpMulticast:
		args = append(args, fmt.Sprintf("%d", p.Imm))
	case OpForward:
		args = append(args, fmt.Sprintf("%d", p.Port))
	}
	if len(args) > 0 {
		fmt.Fprintf(&b, "(%s)", strings.Join(args, ", "))
	}
	return b.String()
}

// Case is one case block of a BRANCH: register conditions and a body.
type Case struct {
	Conds   []Cond
	Body    []Stmt
	Elastic bool
	Pos     Pos
}

// Cond is one `<REGISTER, VALUE, MASK>` condition within a case.
type Cond struct {
	Reg   Reg
	Value uint32
	Mask  uint32
	Pos   Pos
}

// CountLoC counts source lines of code the way the paper's Table 1 does:
// non-empty, non-comment-only lines, excluding elastic case blocks (the
// regions between "//<elastic>" and "//</elastic>" markers), which
// correspond to non-constant table entries in the P4 context.
func CountLoC(src string) int {
	n := 0
	elastic := false
	for _, line := range strings.Split(src, "\n") {
		s := strings.TrimSpace(line)
		switch {
		case strings.Contains(s, "//<elastic>"):
			elastic = true
			continue
		case strings.Contains(s, "//</elastic>"):
			elastic = false
			continue
		}
		if elastic || s == "" {
			continue
		}
		if strings.HasPrefix(s, "//") {
			continue
		}
		if strings.HasPrefix(s, "/*") && strings.HasSuffix(s, "*/") {
			continue
		}
		n++
	}
	return n
}
