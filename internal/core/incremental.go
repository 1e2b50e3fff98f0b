package core

import (
	"fmt"
	"sort"

	"p4runpro/internal/lang"
	"p4runpro/internal/rmt"
)

// Incremental update (paper §7 "Incremental Update", listed as future
// work): extend a *running* program's BRANCH with new case blocks — e.g.
// add a key-value pair to the cache — without revoking and relinking it.
//
// A new case reuses the depth placement of an existing, structurally
// identical elastic case (the template): its primitives install at the
// template's RPBs with fresh parameters, under a freshly assigned branch
// ID, and the case-condition entry (kindCond) goes in last so the update is
// consistent — until then no packet can enter the new branch. Removing a
// case deletes its condition entry first, atomically disabling the whole
// branch, then its body entries.

// AddedCase describes one case added at runtime.
type AddedCase struct {
	BranchID int
	Entries  int
}

// AddCases appends case blocks to the BRANCH at the given 1-based depth of
// a linked program. src contains one or more case blocks in P4runpro syntax
// (`case(<reg, value, mask>) { ... }`). Each body must be structurally
// identical (same primitive sequence on the same memories, after
// translation) to one of the branch's existing cases. It returns the new
// branch IDs.
func (c *Compiler) AddCases(name string, branchDepth int, src string) ([]AddedCase, error) {
	lp, ok := c.Linked(name)
	if !ok {
		return nil, fmt.Errorf("core: program %q not linked", name)
	}

	newCases, err := parseCaseBlocks(src, lp.TP.Memories)
	if err != nil {
		return nil, err
	}

	branchItem, err := findBranchItem(lp.TP, branchDepth)
	if err != nil {
		return nil, err
	}
	templates := buildTemplates(lp, branchItem)

	placementOf := make(map[int]Placement, len(lp.Alloc.Placements))
	for _, pl := range lp.Alloc.Placements {
		placementOf[pl.Depth] = pl
	}
	branchPlacement := placementOf[branchDepth]
	blocks := lp.Blocks()

	var added []AddedCase
	for _, cs := range newCases {
		body, err := translateCaseBody(cs, lp.TP.Memories)
		if err != nil {
			return nil, err
		}
		tmpl, err := matchTemplate(templates, body)
		if err != nil {
			return nil, err
		}
		newID := c.nextBranchID(lp)
		if newID > 65534 {
			return nil, fmt.Errorf("core: %s: branch-ID space exhausted", name)
		}

		// Plan the body entries at the template's depths and the condition
		// entry that opens the branch, which install puts in last.
		var plan []plannedEntry
		for i, prim := range body {
			pl := placementOf[tmpl.depths[i]]
			tbl, err := c.planeFor(pl.Pass).RPBTable(pl.RPB)
			if err != nil {
				return nil, err
			}
			action, params, err := c.primActionParams(prim, blocks)
			if err != nil {
				return nil, err
			}
			keys := make([]rmt.TernaryKey, rpbKeyCount)
			keys[rpbKeyProg] = rmt.Exact(uint32(lp.ProgramID))
			keys[rpbKeyBranch] = rmt.Exact(uint32(newID))
			keys[rpbKeyRecirc] = rmt.Exact(uint32(pl.Pass))
			plan = append(plan, plannedEntry{kind: kindRPB, table: tbl, rpbSlot: rpbSlot{c.mgrFor(pl.Pass), pl.RPB},
				EntrySpec: rmt.EntrySpec{Keys: keys, Action: action, Params: params}})
		}
		condKeys := make([]rmt.TernaryKey, rpbKeyCount)
		condKeys[rpbKeyProg] = rmt.Exact(uint32(lp.ProgramID))
		condKeys[rpbKeyBranch] = rmt.Exact(uint32(branchItem.BranchID))
		condKeys[rpbKeyRecirc] = rmt.Exact(uint32(branchPlacement.Pass))
		for _, cond := range cs.Conds {
			idx := regKeyIndex(cond.Reg)
			if idx < 0 {
				return nil, fmt.Errorf("core: bad condition register %v", cond.Reg)
			}
			condKeys[idx] = rmt.TernaryKey{Value: cond.Value, Mask: cond.Mask}
		}
		branchTbl, err := c.planeFor(branchPlacement.Pass).RPBTable(branchPlacement.RPB)
		if err != nil {
			return nil, err
		}
		// Appended cases rank below the original ones (priority 0, stable
		// insertion order among themselves).
		plan = append(plan, plannedEntry{kind: kindCond, table: branchTbl, rpbSlot: rpbSlot{c.mgrFor(branchPlacement.Pass), branchPlacement.RPB},
			EntrySpec: rmt.EntrySpec{Keys: condKeys, Action: "set_branch", Params: []uint32{uint32(newID)}}})

		// Reserve an entry per planned entry, then install; undo both on
		// any failure.
		if err := reserve(plan); err != nil {
			return added, &AllocError{Program: name, Reason: err.Error(), Err: err}
		}
		installed, err := install(name, plan)
		if err != nil {
			_ = release(plan)
			return added, &AllocError{Program: name, Reason: "incremental install failed: " + err.Error(), Err: err}
		}
		for i := range installed {
			installed[i].branch = newID
		}
		c.mu.Lock()
		lp.entries = append(lp.entries, installed...)
		lp.addedBranches = append(lp.addedBranches, newID)
		lp.Stats.EntryCount += len(installed)
		c.mu.Unlock()
		added = append(added, AddedCase{BranchID: newID, Entries: len(installed)})
	}
	return added, nil
}

// RemoveCase deletes a case branch from a running program: the condition
// entry first (so the branch becomes unreachable atomically), then the body
// entries, releasing their reservations.
func (c *Compiler) RemoveCase(name string, branchID int) error {
	c.mu.Lock()
	lp := c.linked[name]
	var mine, rest []installedEntry
	if lp != nil {
		for _, e := range lp.entries {
			if e.branch == branchID {
				mine = append(mine, e)
			} else {
				rest = append(rest, e)
			}
		}
	}
	c.mu.Unlock()
	if lp == nil {
		return fmt.Errorf("core: program %q not linked", name)
	}
	if len(mine) == 0 {
		return fmt.Errorf("core: program %q has no runtime-added case branch %d", name, branchID)
	}
	if err := retire(mine); err != nil {
		return err
	}
	if err := release(mine); err != nil {
		return err
	}
	c.mu.Lock()
	lp.entries = rest
	lp.Stats.EntryCount = len(rest)
	for i, b := range lp.addedBranches {
		if b == branchID {
			lp.addedBranches = append(lp.addedBranches[:i:i], lp.addedBranches[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	return nil
}

// nextBranchID picks the lowest unused branch ID of a program.
func (c *Compiler) nextBranchID(lp *LinkedProgram) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	used := map[int]bool{}
	for b := 0; b < lp.TP.NumBranchIDs; b++ {
		used[b] = true
	}
	for _, b := range lp.addedBranches {
		used[b] = true
	}
	for id := lp.TP.NumBranchIDs; ; id++ {
		if !used[id] {
			return id
		}
	}
}

// parseCaseBlocks parses `case(...) { ... }` blocks by wrapping them in a
// synthetic program that re-declares the running program's memories.
func parseCaseBlocks(src string, mems []lang.MemDecl) ([]*lang.Case, error) {
	wrapped := ""
	for _, m := range mems {
		wrapped += fmt.Sprintf("@ %s %d\n", m.Name, m.Size)
	}
	wrapped += "program __inc(<hdr.ipv4.dst, 0, 0>) {\nBRANCH:\n" + src + "\n}"
	f, err := lang.ParseFile(wrapped)
	if err != nil {
		return nil, fmt.Errorf("core: case blocks: %w", err)
	}
	if err := lang.Check(f); err != nil {
		return nil, fmt.Errorf("core: case blocks: %w", err)
	}
	br := f.Programs[0].Body[0].(*lang.Prim)
	for _, cs := range br.Cases {
		for _, s := range cs.Body {
			if s.(*lang.Prim).Op == lang.OpBranch {
				return nil, fmt.Errorf("core: incremental case bodies cannot contain nested BRANCH")
			}
		}
	}
	return br.Cases, nil
}

// findBranchItem locates the BRANCH item at a depth.
func findBranchItem(tp *lang.TProgram, depth int) (*lang.TItem, error) {
	if depth < 1 || depth > tp.L() {
		return nil, fmt.Errorf("core: depth %d out of range [1,%d]", depth, tp.L())
	}
	for _, it := range tp.Depths[depth-1].Items {
		if it.Prim.Op == lang.OpBranch {
			return it, nil
		}
	}
	return nil, fmt.Errorf("core: no BRANCH at depth %d", depth)
}

// caseTemplate is the translated shape of one existing case body.
type caseTemplate struct {
	branchID int
	ops      []opSig
	depths   []int // depth of each non-NOP item, in order
}

type opSig struct {
	op  lang.Op
	mem string
}

// buildTemplates extracts the per-case item shapes of a BRANCH.
func buildTemplates(lp *LinkedProgram, branchItem *lang.TItem) []caseTemplate {
	byBranch := map[int]*caseTemplate{}
	var order []int
	for _, id := range branchItem.CaseIDs {
		byBranch[id] = &caseTemplate{branchID: id}
		order = append(order, id)
	}
	for d := 1; d <= lp.TP.L(); d++ {
		for _, it := range lp.TP.Depths[d-1].Items {
			t, ok := byBranch[it.BranchID]
			if !ok || it.Prim.Op == lang.OpNop {
				continue
			}
			t.ops = append(t.ops, opSig{op: it.Prim.Op, mem: it.Prim.Mem})
			t.depths = append(t.depths, d)
		}
	}
	out := make([]caseTemplate, 0, len(order))
	for _, id := range order {
		out = append(out, *byBranch[id])
	}
	return out
}

// translateCaseBody runs a new case body through the same pre-allocation
// pipeline (pseudo expansion, offset insertion) the original program used.
func translateCaseBody(cs *lang.Case, mems []lang.MemDecl) ([]*lang.Prim, error) {
	tmp := &lang.Program{
		Name:    "__inc",
		Filters: []lang.Filter{{Field: "hdr.ipv4.dst"}},
		Body:    cs.Body,
	}
	tp, err := lang.Translate(tmp, mems)
	if err != nil {
		return nil, err
	}
	var out []*lang.Prim
	for d := 1; d <= tp.L(); d++ {
		for _, it := range tp.Depths[d-1].Items {
			if it.Prim.Op == lang.OpNop {
				continue
			}
			out = append(out, it.Prim)
		}
	}
	return out, nil
}

// matchTemplate finds an existing case whose shape the new body mirrors.
func matchTemplate(templates []caseTemplate, body []*lang.Prim) (*caseTemplate, error) {
	for i := range templates {
		t := &templates[i]
		if len(t.ops) != len(body) {
			continue
		}
		match := true
		for j, prim := range body {
			if t.ops[j].op != prim.Op || t.ops[j].mem != prim.Mem {
				match = false
				break
			}
		}
		if match {
			return t, nil
		}
	}
	var shapes []string
	for _, t := range templates {
		shapes = append(shapes, fmt.Sprintf("branch %d: %v", t.branchID, t.ops))
	}
	sort.Strings(shapes)
	return nil, fmt.Errorf("core: new case body matches no existing case shape (%v)", shapes)
}
