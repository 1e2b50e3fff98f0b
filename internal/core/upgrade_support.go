package core

import (
	"fmt"

	"p4runpro/internal/resource"
	"p4runpro/internal/rmt"
)

// This file holds the compiler-side primitives a versioned program upgrade
// (internal/upgrade) composes: enumerating a program's installed init-table
// filters (the templates for dispatch entries), enabling the withheld init
// entries of a deferred-init link, and renaming a linked program when the
// surviving version takes over the operator-visible name at commit.

// InitEntryRef describes one installed initialization-block entry of a
// linked program — table, entry identity, and the ternary filter it matches.
type InitEntryRef struct {
	Table    *rmt.Table
	ID       rmt.EntryID
	Keys     []rmt.TernaryKey
	Priority int
}

// InitEntries returns a linked program's installed init-table entries.
func (c *Compiler) InitEntries(name string) ([]InitEntryRef, error) {
	c.mu.Lock()
	lp, ok := c.linked[name]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: program %q not linked", name)
	}
	var out []InitEntryRef
	for _, ie := range lp.entries {
		if ie.kind == kindInit {
			out = append(out, InitEntryRef{Table: ie.table, ID: ie.id, Keys: ie.keys, Priority: ie.priority})
		}
	}
	return out, nil
}

// InstallDeferredInit installs the initialization-block entries withheld by
// LinkProgramDeferredInit, enabling the program's own traffic filters. It
// returns how many entries were installed; a program with nothing deferred
// is a no-op.
func (c *Compiler) InstallDeferredInit(name string) (int, error) {
	c.mu.Lock()
	lp, ok := c.linked[name]
	c.mu.Unlock()
	if !ok {
		return 0, fmt.Errorf("core: program %q not linked", name)
	}
	n := 0
	for _, pe := range lp.deferredInit {
		id, err := pe.table.Insert(pe.keys, pe.priority, pe.action, pe.params, lp.Name)
		if err != nil {
			return n, err
		}
		lp.entries = append(lp.entries, pe.installed(id))
		n++
	}
	lp.deferredInit = nil
	lp.Stats.EntryCount = len(lp.entries)
	return n, nil
}

// Rename re-keys a linked program to a new operator-visible name: the
// compiler's index, every resource manager holding a share, and every
// installed table entry's owner move together. Entry owners feed postcards
// and per-program hit counters, so the swap goes through Table.Reown's
// copy-on-write republication. The rename is control-plane metadata only —
// the program ID, and with it every data plane match, is untouched.
func (c *Compiler) Rename(oldName, newName string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	lp, ok := c.linked[oldName]
	if !ok {
		return fmt.Errorf("core: program %q not linked", oldName)
	}
	if _, dup := c.linked[newName]; dup {
		return fmt.Errorf("core: program %q already linked", newName)
	}
	passAllocs := lp.passAllocs
	if passAllocs == nil {
		passAllocs = []passAlloc{{mgr: c.Mgr}}
	}
	var done []*resource.Manager
	seen := make(map[*resource.Manager]bool, len(passAllocs))
	for _, pa := range passAllocs {
		if seen[pa.mgr] {
			continue
		}
		seen[pa.mgr] = true
		if err := pa.mgr.Rename(oldName, newName); err != nil {
			for _, m := range done {
				_ = m.Rename(newName, oldName)
			}
			return err
		}
		done = append(done, pa.mgr)
	}
	tables := make(map[*rmt.Table]bool, len(lp.entries))
	for _, ie := range lp.entries {
		if !tables[ie.table] {
			tables[ie.table] = true
			ie.table.Reown(oldName, newName)
		}
	}
	lp.Name = newName
	delete(c.linked, oldName)
	c.linked[newName] = lp
	return nil
}
