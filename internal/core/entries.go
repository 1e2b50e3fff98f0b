package core

import (
	"fmt"

	"p4runpro/internal/dataplane"
	"p4runpro/internal/lang"
	"p4runpro/internal/resource"
	"p4runpro/internal/rmt"
)

// entryKind orders entries for consistent updates: when adding, program
// components go in before the initialization block enables the program ID;
// when deleting, the initialization block goes first so every component
// stops at once (paper §4.3 "Consistent Update", Figure 6). A case added at
// runtime opens its branch with its condition entry, so that entry goes in
// after the case body and out before it.
type entryKind int

const (
	kindRPB entryKind = iota
	kindRecirc
	kindCond
	kindInit
)

// plannedEntry is one table entry the compiler will install for a program.
type plannedEntry struct {
	kind  entryKind
	table *rmt.Table
	rmt.EntrySpec
	rpbSlot
}

// rpbSlot names the switch (by its resource manager) and RPB whose entry
// budget an RPB-table entry reserves one entry of; entries of other tables
// leave it zero.
type rpbSlot struct {
	mgr *resource.Manager
	rpb resource.RPBID
}

func (s rpbSlot) slot() rpbSlot { return s }

// installedEntry records an installed entry for its later deletion, with the
// keys and priority it was installed under (dispatch entries copy them) and
// its planned entry's reservation. branch is nonzero only for entries added
// by an incremental case update, keyed by the runtime-assigned branch ID.
type installedEntry struct {
	kind     entryKind
	table    *rmt.Table
	id       rmt.EntryID
	keys     []rmt.TernaryKey
	priority int
	rpbSlot
	branch int
}

// reserve claims the RPB entry each planned entry names, all or none.
func reserve(plan []plannedEntry) error {
	for i, pe := range plan {
		if pe.mgr == nil {
			continue
		}
		if err := pe.mgr.Reserve(pe.rpb, 1); err != nil {
			_ = release(plan[:i])
			return err
		}
	}
	return nil
}

// release returns the RPB entry each entry reserved, planned or installed,
// and reports the first failure.
func release[E interface{ slot() rpbSlot }](entries []E) error {
	var first error
	for _, e := range entries {
		if s := e.slot(); s.mgr != nil {
			if err := s.mgr.Release(s.rpb, 1); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// slotted is what batches groups entries by: their kind and table.
type slotted interface {
	at() (entryKind, *rmt.Table)
}

func (pe plannedEntry) at() (entryKind, *rmt.Table)   { return pe.kind, pe.table }
func (ie installedEntry) at() (entryKind, *rmt.Table) { return ie.kind, ie.table }

// batches groups entries into the table writes of a consistent update, as
// indices into entries: one batch per kind per table, tables in order of
// first appearance within a kind, each batch in entry order. The kinds go
// in ascending order to install and descending order to retire, so this is
// the one place the §4.3 order lives.
func batches[E slotted](entries []E, retire bool) [][]int {
	idx := make([]int, 0, len(entries))
	taken := make([]bool, len(entries))
	out := make([][]int, 0, len(entries))
	for k := kindRPB; k <= kindInit; k++ {
		kind := k
		if retire {
			kind = kindInit - k
		}
		for i, e := range entries {
			if ek, table := e.at(); !taken[i] && ek == kind {
				start := len(idx)
				for j := i; j < len(entries); j++ {
					if jk, jt := entries[j].at(); !taken[j] && jk == kind && jt == table {
						taken[j] = true
						idx = append(idx, j)
					}
				}
				out = append(out, idx[start:])
			}
		}
	}
	return out
}

// install writes plan to the tables under owner, one atomic batch per
// table per kind in consistent-update order, and returns what it installed.
// If a batch fails, the batches already published are retired: nothing of
// plan stays installed.
func install(owner string, plan []plannedEntry) ([]installedEntry, error) {
	out := make([]installedEntry, 0, len(plan))
	specs := make([]rmt.EntrySpec, len(plan))
	for _, b := range batches(plan, false) {
		for i, j := range b {
			specs[i] = plan[j].EntrySpec
		}
		first, err := plan[b[0]].table.Update(nil, specs[:len(b)], owner)
		if err != nil {
			_ = retire(out)
			return nil, err
		}
		for i, j := range b {
			pe := plan[j]
			out = append(out, installedEntry{kind: pe.kind, table: pe.table, id: first + rmt.EntryID(i),
				keys: pe.Keys, priority: pe.Priority, rpbSlot: pe.rpbSlot})
		}
	}
	return out, nil
}

// retire deletes installed entries, one atomic batch per table per kind in
// consistent-update order.
func retire(entries []installedEntry) error {
	ids := make([]rmt.EntryID, len(entries))
	for _, b := range batches(entries, true) {
		for i, j := range b {
			ids[i] = entries[j].id
		}
		if _, err := entries[b[0]].table.Update(ids[:len(b)], nil, ""); err != nil {
			return err
		}
	}
	return nil
}

var actionName = map[lang.Op]string{
	lang.OpNop:           "nop",
	lang.OpExtract:       "extract",
	lang.OpModify:        "modify",
	lang.OpHash5Tuple:    "hash5",
	lang.OpHash:          "hash",
	lang.OpHash5TupleMem: "hash5_mem",
	lang.OpHashMem:       "hash_mem",
	lang.OpOffset:        "offset",
	lang.OpMemAdd:        "mem_add",
	lang.OpMemSub:        "mem_sub",
	lang.OpMemAnd:        "mem_and",
	lang.OpMemOr:         "mem_or",
	lang.OpMemRead:       "mem_read",
	lang.OpMemWrite:      "mem_write",
	lang.OpMemMax:        "mem_max",
	lang.OpLoadI:         "loadi",
	lang.OpAdd:           "add",
	lang.OpAnd:           "and",
	lang.OpOr:            "or",
	lang.OpMax:           "max",
	lang.OpMin:           "min",
	lang.OpXor:           "xor",
	lang.OpBackup:        "backup",
	lang.OpRestore:       "restore",
	lang.OpForward:       "forward",
	lang.OpDrop:          "drop",
	lang.OpReturn:        "return",
	lang.OpReport:        "report",
	lang.OpMulticast:     "multicast",
}

func regKeyIndex(r lang.Reg) int {
	switch r {
	case lang.HAR:
		return rpbKeyHAR
	case lang.SAR:
		return rpbKeySAR
	case lang.MAR:
		return rpbKeyMAR
	}
	return -1
}

// RPB table key positions (must match internal/dataplane's layout).
const (
	rpbKeyProg = iota
	rpbKeyBranch
	rpbKeyRecirc
	rpbKeyHAR
	rpbKeySAR
	rpbKeyMAR
	rpbKeyCount
)

// primActionParams resolves a translated primitive to its RPB action name
// and entry parameters, using the program's committed memory blocks for
// address-translation masks and offsets.
func (c *Compiler) primActionParams(prim *lang.Prim, blocks map[string]resource.MemBlock) (string, []uint32, error) {
	action, ok := actionName[prim.Op]
	if !ok {
		return "", nil, fmt.Errorf("core: primitive %s has no data plane action", prim.Op)
	}
	var params []uint32
	switch prim.Op {
	case lang.OpExtract, lang.OpModify:
		fid, err := c.Plane.FieldID(prim.Field)
		if err != nil {
			return "", nil, err
		}
		params = []uint32{fid, uint32(prim.R0)}
	case lang.OpHash5TupleMem, lang.OpHashMem:
		b, ok := blocks[prim.Mem]
		if !ok {
			return "", nil, fmt.Errorf("core: no committed block for memory %q", prim.Mem)
		}
		params = []uint32{b.Size - 1} // the mask step
	case lang.OpOffset:
		b, ok := blocks[prim.Mem]
		if !ok {
			return "", nil, fmt.Errorf("core: no committed block for memory %q", prim.Mem)
		}
		params = []uint32{b.Start}
	case lang.OpLoadI:
		params = []uint32{uint32(prim.R0), prim.Imm}
	case lang.OpAdd, lang.OpAnd, lang.OpOr, lang.OpMax, lang.OpMin, lang.OpXor:
		params = []uint32{uint32(prim.R0), uint32(prim.R1)}
	case lang.OpBackup, lang.OpRestore:
		params = []uint32{uint32(prim.R0)}
	case lang.OpForward:
		params = []uint32{prim.Port}
	case lang.OpMulticast:
		params = []uint32{prim.Imm}
	}
	return action, params, nil
}

// planEntries builds every table entry for a program after allocation and
// memory commit. blocks maps virtual memory names to their committed
// physical blocks (for offset-step bases and hash masks).
func (c *Compiler) planEntries(tp *lang.TProgram, alloc *AllocResult, pid uint16, blocks map[string]resource.MemBlock) ([]plannedEntry, error) {
	var out []plannedEntry

	// RPB entries, one per non-NOP item per depth (case entries for
	// BRANCH items).
	for _, pl := range alloc.Placements {
		tbl, err := c.planeFor(pl.Pass).RPBTable(pl.RPB)
		if err != nil {
			return nil, err
		}
		slot := rpbSlot{c.mgrFor(pl.Pass), pl.RPB}
		for _, it := range tp.Depths[pl.Depth-1].Items {
			prim := it.Prim
			if prim.Op == lang.OpNop {
				continue
			}
			baseKeys := func() []rmt.TernaryKey {
				k := make([]rmt.TernaryKey, rpbKeyCount)
				k[rpbKeyProg] = rmt.Exact(uint32(pid))
				k[rpbKeyBranch] = rmt.Exact(uint32(it.BranchID))
				k[rpbKeyRecirc] = rmt.Exact(uint32(pl.Pass))
				return k
			}
			if prim.Op == lang.OpBranch {
				for ci, cs := range prim.Cases {
					keys := baseKeys()
					for _, cond := range cs.Conds {
						idx := regKeyIndex(cond.Reg)
						if idx < 0 {
							return nil, fmt.Errorf("core: bad condition register %v", cond.Reg)
						}
						keys[idx] = rmt.TernaryKey{Value: cond.Value, Mask: cond.Mask}
					}
					out = append(out, plannedEntry{kind: kindRPB, table: tbl, rpbSlot: slot, EntrySpec: rmt.EntrySpec{
						Keys:     keys,
						Priority: len(prim.Cases) - ci, // source order wins
						Action:   "set_branch",
						Params:   []uint32{uint32(it.CaseIDs[ci])},
					}})
				}
				continue
			}
			action, params, err := c.primActionParams(prim, blocks)
			if err != nil {
				return nil, err
			}
			out = append(out, plannedEntry{kind: kindRPB, table: tbl, rpbSlot: slot, EntrySpec: rmt.EntrySpec{
				Keys:   baseKeys(),
				Action: action,
				Params: params,
			}})
		}
	}

	// Recirculation entries: for every pass boundary, every branch that can
	// be live at the recirculation block and continues into the next pass.
	recircEntries, err := c.planRecirc(tp, alloc, pid)
	if err != nil {
		return nil, err
	}
	out = append(out, recircEntries...)

	// Initialization block entries: one per compatible parsing path,
	// planned last.
	paths, err := dataplane.CompatiblePaths(tp.Filters)
	if err != nil {
		return nil, err
	}
	for _, path := range paths {
		// Filters live on the first switch of a chain; downstream switches
		// identify packets by the shim's program ID instead.
		tbl, err := c.planeFor(0).InitTable(path)
		if err != nil {
			return nil, err
		}
		keys, err := dataplane.FilterKeys(tp.Filters, path)
		if err != nil {
			return nil, err
		}
		// More specific filters win: priority is the total mask width, so
		// a default-route program (all-wildcard filter) never shadows a
		// program with flow- or port-granular filters.
		prio := 0
		for _, k := range keys[1:] { // skip the bitmap key, equal per table
			prio += popcount(k.Mask)
		}
		out = append(out, plannedEntry{kind: kindInit, table: tbl, EntrySpec: rmt.EntrySpec{
			Keys:     keys,
			Priority: prio,
			Action:   "set_program",
			Params:   []uint32{uint32(pid)},
		}})
	}
	return out, nil
}

func popcount(v uint32) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// planRecirc computes the recirculation-block entries. The recirculation
// block runs at the *end of ingress*, so the branch ID it observes in pass p
// is whatever the ingress RPBs of that pass produced — forks placed in
// egress have not happened yet. A branch β therefore needs an entry at pass
// boundary p→p+1 when (a) β can be the current branch at the recirculation
// point (its fork, if any, is placed at or before ingress RPB N of pass p)
// and (b) execution continuing in β — its own items or any descendant's —
// has work placed beyond pass p. This is necessarily conservative: a packet
// may recirculate and then fall into a branch that finished, costing one
// wasted pass but never wrong behaviour.
func (c *Compiler) planRecirc(tp *lang.TProgram, alloc *AllocResult, pid uint16) ([]plannedEntry, error) {
	maxPass := alloc.MaxPass()
	if maxPass == 0 {
		return nil, nil
	}
	m, n := c.Plane.M, c.Plane.N
	logicalOf := make([]int, tp.L()+1) // 1-based depth -> logical RPB
	for _, pl := range alloc.Placements {
		logicalOf[pl.Depth] = pl.Logical
	}
	// Branch tree: fork depth and children per branch, own max logical.
	forkDepth := map[int]int{}
	children := map[int][]int{}
	ownMax := map[int]int{0: 0}
	for d := 1; d <= tp.L(); d++ {
		for _, it := range tp.Depths[d-1].Items {
			if logicalOf[d] > ownMax[it.BranchID] {
				ownMax[it.BranchID] = logicalOf[d]
			}
			for _, cid := range it.CaseIDs {
				forkDepth[cid] = d
				children[it.BranchID] = append(children[it.BranchID], cid)
			}
		}
	}
	subtreeMax := make(map[int]int, len(ownMax))
	var calc func(b int) int
	calc = func(b int) int {
		if v, ok := subtreeMax[b]; ok {
			return v
		}
		max := ownMax[b]
		for _, ch := range children[b] {
			if v := calc(ch); v > max {
				max = v
			}
		}
		subtreeMax[b] = max
		return max
	}
	for b := range ownMax {
		calc(b)
	}

	var out []plannedEntry
	for p := 0; p < maxPass; p++ {
		tbl := c.planeFor(p).RecircTable()
		recircPoint := p*m + n
		for branch := 0; branch < tp.NumBranchIDs; branch++ {
			if branch != 0 {
				fd, ok := forkDepth[branch]
				if !ok || logicalOf[fd] > recircPoint {
					continue // fork has not executed by the recirc block
				}
			}
			if subtreeMax[branch] <= (p+1)*m {
				continue // nothing left beyond this pass
			}
			out = append(out, plannedEntry{kind: kindRecirc, table: tbl, EntrySpec: rmt.EntrySpec{
				Keys: []rmt.TernaryKey{
					rmt.Exact(uint32(pid)),
					rmt.Exact(uint32(branch)),
					rmt.Exact(uint32(p)),
				},
				Action: "recirculate",
			}})
		}
	}
	return out, nil
}
