package lang

// Parser is a recursive-descent parser for the grammar of Appendix B.1,
// with two practical extensions seen in the paper's own examples: case
// conditions name their register (`<har, 2, 0xffffffff>` as in Figure 2),
// and a `case` block may be marked elastic with a preceding `//<elastic>`
// marker handled at the LoC-counting layer.
type Parser struct {
	toks []Token
	pos  int
}

// ParseFile lexes and parses a complete source file.
func ParseFile(src string) (*File, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	return p.file()
}

func (p *Parser) cur() Token  { return p.toks[p.pos] }
func (p *Parser) next() Token { t := p.toks[p.pos]; p.pos++; return t }

func (p *Parser) expect(k TokenKind) (Token, error) {
	t := p.cur()
	if t.Kind != k {
		return t, errAt(t.Pos, "expected %v, found %v", k, t)
	}
	p.pos++
	return t, nil
}

func (p *Parser) accept(k TokenKind) bool {
	if p.cur().Kind == k {
		p.pos++
		return true
	}
	return false
}

func (p *Parser) file() (*File, error) {
	f := &File{}
	for p.cur().Kind == TokAt {
		m, err := p.annotation()
		if err != nil {
			return nil, err
		}
		f.Memories = append(f.Memories, m)
	}
	for p.cur().Kind == TokProgram {
		prog, err := p.program()
		if err != nil {
			return nil, err
		}
		f.Programs = append(f.Programs, prog)
	}
	if len(f.Programs) == 0 {
		return nil, errAt(p.cur().Pos, "expected at least one program declaration, found %v", p.cur())
	}
	if _, err := p.expect(TokEOF); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *Parser) annotation() (MemDecl, error) {
	at, _ := p.expect(TokAt)
	name, err := p.expect(TokIdent)
	if err != nil {
		return MemDecl{}, err
	}
	size, err := p.expect(TokInt)
	if err != nil {
		return MemDecl{}, err
	}
	if size.Val == 0 || size.Val > 1<<31 {
		return MemDecl{}, errAt(size.Pos, "memory size %d out of range", size.Val)
	}
	return MemDecl{Name: name.Text, Size: uint32(size.Val), Pos: at.Pos}, nil
}

func (p *Parser) program() (*Program, error) {
	kw, _ := p.expect(TokProgram)
	name, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	prog := &Program{Name: name.Text, Pos: kw.Pos}
	for {
		flt, err := p.filter()
		if err != nil {
			return nil, err
		}
		prog.Filters = append(prog.Filters, flt)
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	body, err := p.stmts()
	if err != nil {
		return nil, err
	}
	prog.Body = body
	if _, err := p.expect(TokRBrace); err != nil {
		return nil, err
	}
	return prog, nil
}

func (p *Parser) filter() (Filter, error) {
	lt, err := p.expect(TokLAngle)
	if err != nil {
		return Filter{}, err
	}
	field, err := p.expect(TokIdent)
	if err != nil {
		return Filter{}, err
	}
	if _, err := p.expect(TokComma); err != nil {
		return Filter{}, err
	}
	val := p.next()
	if val.Kind != TokInt && val.Kind != TokIP {
		return Filter{}, errAt(val.Pos, "expected value, found %v", val)
	}
	if _, err := p.expect(TokComma); err != nil {
		return Filter{}, err
	}
	mask, err := p.expect(TokInt)
	if err != nil {
		return Filter{}, err
	}
	if _, err := p.expect(TokRAngle); err != nil {
		return Filter{}, err
	}
	return Filter{Field: field.Text, Value: uint32(val.Val), Mask: uint32(mask.Val), Pos: lt.Pos}, nil
}

func (p *Parser) stmts() ([]Stmt, error) {
	var out []Stmt
	for {
		t := p.cur()
		if t.Kind == TokRBrace || t.Kind == TokEOF {
			return out, nil
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

func (p *Parser) stmt() (Stmt, error) {
	t, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	op, ok := ParseOp(t.Text)
	if !ok {
		return nil, errAt(t.Pos, "unknown primitive %q", t.Text)
	}
	if op == OpBranch {
		return p.branch(t.Pos)
	}
	prim := &Prim{Op: op, Pos: t.Pos}
	sig, _ := Signature(op)
	if len(sig) == 0 {
		if _, err := p.expect(TokSemi); err != nil {
			return nil, err
		}
		return prim, nil
	}
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	for i, kind := range sig {
		if i > 0 {
			if _, err := p.expect(TokComma); err != nil {
				return nil, err
			}
		}
		if err := p.arg(prim, kind); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokSemi); err != nil {
		return nil, err
	}
	return prim, nil
}

func (p *Parser) arg(prim *Prim, kind ArgKind) error {
	t := p.next()
	switch kind {
	case ArgField:
		if t.Kind != TokIdent {
			return errAt(t.Pos, "expected header field, found %v", t)
		}
		prim.Field = t.Text
	case ArgIdent:
		if t.Kind != TokIdent {
			return errAt(t.Pos, "expected memory identifier, found %v", t)
		}
		prim.Mem = t.Text
	case ArgReg:
		if t.Kind != TokIdent {
			return errAt(t.Pos, "expected register, found %v", t)
		}
		r, ok := ParseReg(t.Text)
		if !ok {
			return errAt(t.Pos, "expected register har/sar/mar, found %q", t.Text)
		}
		if prim.R0 == RegNone {
			prim.R0 = r
		} else {
			prim.R1 = r
		}
	case ArgImm:
		if t.Kind != TokInt && t.Kind != TokIP {
			return errAt(t.Pos, "expected immediate, found %v", t)
		}
		prim.Imm = uint32(t.Val)
	case ArgPort:
		if t.Kind != TokInt {
			return errAt(t.Pos, "expected egress port, found %v", t)
		}
		prim.Port = uint32(t.Val)
	}
	return nil
}

func (p *Parser) branch(pos Pos) (Stmt, error) {
	if _, err := p.expect(TokColon); err != nil {
		return nil, err
	}
	prim := &Prim{Op: OpBranch, Pos: pos}
	for {
		elastic := false
		if p.cur().Kind == TokIdent && p.cur().Text == "elastic" && p.toks[p.pos+1].Kind == TokCase {
			p.pos++
			elastic = true
		}
		if p.cur().Kind != TokCase {
			break
		}
		c, err := p.caseBlock()
		if err != nil {
			return nil, err
		}
		c.Elastic = elastic
		prim.Cases = append(prim.Cases, c)
	}
	if len(prim.Cases) == 0 {
		return nil, errAt(pos, "BRANCH requires at least one case block")
	}
	// Terminating ';' after the case list (optional after a '}').
	p.accept(TokSemi)
	return prim, nil
}

func (p *Parser) caseBlock() (*Case, error) {
	kw, _ := p.expect(TokCase)
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	c := &Case{Pos: kw.Pos}
	for {
		cond, err := p.cond()
		if err != nil {
			return nil, err
		}
		c.Conds = append(c.Conds, cond)
		if !p.accept(TokComma) {
			break
		}
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokLBrace); err != nil {
		return nil, err
	}
	body, err := p.stmts()
	if err != nil {
		return nil, err
	}
	c.Body = body
	if _, err := p.expect(TokRBrace); err != nil {
		return nil, err
	}
	p.accept(TokSemi)
	return c, nil
}

func (p *Parser) cond() (Cond, error) {
	lt, err := p.expect(TokLAngle)
	if err != nil {
		return Cond{}, err
	}
	regTok, err := p.expect(TokIdent)
	if err != nil {
		return Cond{}, err
	}
	reg, ok := ParseReg(regTok.Text)
	if !ok {
		return Cond{}, errAt(regTok.Pos, "condition register must be har/sar/mar, found %q", regTok.Text)
	}
	if _, err := p.expect(TokComma); err != nil {
		return Cond{}, err
	}
	val := p.next()
	if val.Kind != TokInt && val.Kind != TokIP {
		return Cond{}, errAt(val.Pos, "expected condition value, found %v", val)
	}
	if _, err := p.expect(TokComma); err != nil {
		return Cond{}, err
	}
	mask, err := p.expect(TokInt)
	if err != nil {
		return Cond{}, err
	}
	if _, err := p.expect(TokRAngle); err != nil {
		return Cond{}, err
	}
	return Cond{Reg: reg, Value: uint32(val.Val), Mask: uint32(mask.Val), Pos: lt.Pos}, nil
}
