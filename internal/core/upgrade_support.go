package core

import (
	"fmt"

	"p4runpro/internal/rmt"
)

// This file holds the compiler-side primitives a versioned program upgrade
// (internal/upgrade) composes: installing entries above a program's
// init-table filters (the cutover's dispatch entries), enabling the withheld
// init entries of a deferred-init link, renaming a linked program when the
// surviving version takes over the operator-visible name at commit, and
// reading hit counts through the entries the compiler installed.

// Installed is a set of entries the compiler installed for a caller, held
// until the caller retires it.
type Installed struct{ entries []installedEntry }

// Retire deletes the set's entries in consistent-update order; a nil set
// retires nothing.
func (in *Installed) Retire() error {
	if in == nil {
		return nil
	}
	err := retire(in.entries)
	in.entries = nil
	return err
}

// Hits sums the direct counters of the set's entries; a nil set has none.
func (in *Installed) Hits() uint64 {
	if in == nil {
		return 0
	}
	all, _ := hits(in.entries)
	return all
}

// InstallAbove installs, one priority above each of a linked program's
// init-table entries, an entry with the same filter that runs action with
// params under owner: for any packet the program claims, the new entry
// wins. A versioned upgrade's cutover installs its dispatch entries so.
func (c *Compiler) InstallAbove(name, owner, action string, params []uint32) (*Installed, error) {
	entries, ok := c.entriesOf(name)
	if !ok {
		return nil, fmt.Errorf("core: program %q not linked", name)
	}
	var plan []plannedEntry
	for _, ie := range entries {
		if ie.kind == kindInit {
			spec := rmt.EntrySpec{Keys: ie.keys, Priority: ie.priority + 1, Action: action, Params: params}
			plan = append(plan, plannedEntry{kind: kindInit, table: ie.table, EntrySpec: spec})
		}
	}
	entries, err := install(owner, plan)
	if err != nil {
		return nil, err
	}
	return &Installed{entries}, nil
}

// InstallDeferredInit installs the initialization-block entries withheld by
// LinkProgramDeferredInit, all or none, enabling the program's own traffic
// filters. It returns how many entries were installed; a program with
// nothing deferred is a no-op.
func (c *Compiler) InstallDeferredInit(name string) (int, error) {
	lp, ok := c.Linked(name)
	if !ok {
		return 0, fmt.Errorf("core: program %q not linked", name)
	}
	installed, err := install(lp.Name, lp.deferredInit)
	if err != nil {
		return 0, err
	}
	c.mu.Lock()
	lp.entries = append(lp.entries, installed...)
	lp.deferredInit = nil
	lp.Stats.EntryCount = len(lp.entries)
	c.mu.Unlock()
	return len(installed), nil
}

// Hits returns a linked program's hit counts, read through the entries the
// compiler installed for it: all sums every entry's direct counter (an RPB
// entry hits once per executed primitive), packets only its init entries',
// each of which hits once per packet. An unlinked name reads zero.
func (c *Compiler) Hits(name string) (all, packets uint64) {
	entries, _ := c.entriesOf(name)
	return hits(entries)
}

// entriesOf returns a linked program's installed entries. Entries are never
// changed once installed, and a program's list is only appended to or
// replaced under c.mu, so the slice read here can be walked after the lock
// is dropped.
func (c *Compiler) entriesOf(name string) ([]installedEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if lp := c.linked[name]; lp != nil {
		return lp.entries, true
	}
	return nil, false
}

// hits sums the direct counters of entries: all of them, and the init
// entries alone.
func hits(entries []installedEntry) (all, packets uint64) {
	for _, e := range entries {
		h := e.table.Hits(e.id)
		all += h
		if e.kind == kindInit {
			packets += h
		}
	}
	return all, packets
}

// Rename re-keys a linked program to a new operator-visible name: the
// compiler's index and every installed table entry's owner move together.
// Entry owners feed postcards and per-program hit counters, so the swap
// goes through Table.Reown's copy-on-write republication. The rename is
// control-plane metadata only — the program ID, and with it every data
// plane match, is untouched.
func (c *Compiler) Rename(oldName, newName string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	lp := c.linked[oldName]
	if lp == nil {
		return fmt.Errorf("core: program %q not linked", oldName)
	}
	if _, dup := c.linked[newName]; dup {
		return fmt.Errorf("core: program %q already linked", newName)
	}
	for _, b := range batches(lp.entries, false) { // a table met again moves nothing
		lp.entries[b[0]].table.Reown(oldName, newName)
	}
	lp.Name = newName
	delete(c.linked, oldName)
	c.linked[newName] = lp
	return nil
}
