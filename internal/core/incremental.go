package core

import (
	"fmt"
	"sort"

	"p4runpro/internal/lang"
	"p4runpro/internal/resource"
	"p4runpro/internal/rmt"
)

// Incremental update (paper §7 "Incremental Update", listed as future
// work): extend a *running* program's BRANCH with new case blocks — e.g.
// add a key-value pair to the cache — without revoking and relinking it.
//
// A new case reuses the depth placement of an existing, structurally
// identical elastic case (the template): its primitives install at the
// template's RPBs with fresh parameters, under a freshly assigned branch
// ID, and the case-condition entry goes in last so the update is consistent
// — until then no packet can enter the new branch. Removing a case deletes
// its condition entry first, atomically disabling the whole branch, then
// its body entries.

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
	c.mu.Lock()
	lp, ok := c.linked[name]
	c.mu.Unlock()
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

		// Plan the body entries at the template's depths, then the
		// condition entry last (consistent update within the addition).
		var plan []plannedEntry
		var rpbs []struct {
			mgr *resource.Manager
			rpb resource.RPBID
		}
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
			plan = append(plan, plannedEntry{kind: kindRPB, table: tbl, keys: keys, action: action, params: params})
			rpbs = append(rpbs, struct {
				mgr *resource.Manager
				rpb resource.RPBID
			}{c.mgrFor(pl.Pass), pl.RPB})
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
		plan = append(plan, plannedEntry{
			kind: kindRPB, table: branchTbl, keys: condKeys,
			action: "set_branch", params: []uint32{uint32(newID)},
		})
		rpbs = append(rpbs, struct {
			mgr *resource.Manager
			rpb resource.RPBID
		}{c.mgrFor(branchPlacement.Pass), branchPlacement.RPB})

		// Reserve entries, then install; roll back on any failure.
		var reserved int
		var installed []installedEntry
		rollback := func() {
			for i := len(installed) - 1; i >= 0; i-- {
				_ = installed[i].table.Delete(installed[i].id)
			}
			for i := 0; i < reserved; i++ {
				_ = rpbs[i].mgr.Release(name, rpbs[i].rpb, 1)
			}
		}
		for i := range plan {
			if err := rpbs[i].mgr.Reserve(name, rpbs[i].rpb, 1); err != nil {
				rollback()
				return added, &AllocError{Program: name, Reason: err.Error(), Err: err}
			}
			reserved++
		}
		for _, pe := range plan {
			id, err := pe.table.Insert(pe.keys, pe.priority, pe.action, pe.params, name)
			if err != nil {
				rollback()
				return added, &AllocError{Program: name, Reason: "incremental install failed: " + err.Error(), Err: err}
			}
			ie := pe.installed(id)
			ie.branch = newID
			installed = append(installed, ie)
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
	lp, ok := c.linked[name]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: program %q not linked", name)
	}
	c.mu.Lock()
	var mine, rest []installedEntry
	for _, e := range lp.entries {
		if e.branch == branchID {
			mine = append(mine, e)
		} else {
			rest = append(rest, e)
		}
	}
	c.mu.Unlock()
	if len(mine) == 0 {
		return fmt.Errorf("core: program %q has no runtime-added case branch %d", name, branchID)
	}
	// The condition entry is the last installed; delete it first.
	for i := len(mine) - 1; i >= 0; i-- {
		e := mine[i]
		if err := e.table.Delete(e.id); err != nil {
			return err
		}
		rpb, mgr, err := c.rpbOfTable(e.table)
		if err != nil {
			return err
		}
		if err := mgr.Release(name, rpb, 1); err != nil {
			return err
		}
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

// rpbOfTable locates a table's RPB number and owning manager across passes.
func (c *Compiler) rpbOfTable(t *rmt.Table) (resource.RPBID, *resource.Manager, error) {
	passes := 1
	if c.passTargets != nil {
		passes = len(c.passTargets)
	}
	for p := 0; p < passes; p++ {
		pl := c.planeFor(p)
		for rpb := resource.RPBID(1); int(rpb) <= pl.M; rpb++ {
			tbl, err := pl.RPBTable(rpb)
			if err != nil {
				return 0, nil, err
			}
			if tbl == t {
				return rpb, c.mgrFor(p), nil
			}
		}
	}
	return 0, nil, fmt.Errorf("core: table %q is not an RPB", t.Name)
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
