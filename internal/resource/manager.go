// Package resource implements P4runpro's resource manager (paper §3.1,
// §4.3): it tracks dynamic usage of every RPB's table entries and stateful
// memory, maintains free memory partitions in doubly-linked lists supporting
// only continuous allocation (first-fit, power-of-two sizes), assigns
// program IDs, locks and resets memory during program termination so stale
// buckets are never handed to a new program, and performs virtual→physical
// address translation for control-plane memory access.
package resource

import (
	"fmt"
	"sync"
)

// RPBID numbers a physical RPB from 1..M; 1..N are ingress RPBs and
// N+1..M are egress RPBs.
type RPBID int

// MemBlock is an allocated contiguous run of stateful memory inside one RPB.
type MemBlock struct {
	Name  string // virtual memory identifier from the program's @ annotation
	RPB   RPBID
	Start uint32 // physical word offset
	Size  uint32 // words
}

// ProgramAlloc records everything a linked program holds.
type ProgramAlloc struct {
	Name      string
	ProgramID uint16
	Blocks    []MemBlock
	Entries   map[RPBID]int // RPB table entries reserved
	ExtraTE   int           // init-block filters + recirculation entries

	// ownsPID records whether Commit allocated the program ID from this
	// manager (chain deployments pre-assign a chain-wide ID instead).
	ownsPID bool
}

// partition is a node of a per-RPB doubly-linked free list, kept sorted by
// start address so freeing coalesces adjacent partitions in O(1).
type partition struct {
	start, size uint32
	prev, next  *partition
}

type rpbState struct {
	entriesUsed int
	freeHead    *partition
	lockedWords uint32 // locked (terminating, pre-reset) memory
}

// Manager is the resource manager.
type Manager struct {
	M, N     int // physical RPB count, ingress RPB count
	tableCap int
	memWords uint32

	mu       sync.Mutex
	rpbs     []*rpbState
	programs map[string]*ProgramAlloc
	nextPID  uint16
	freePIDs []uint16
}

// NewManager creates a manager for M physical RPBs (N ingress) with the
// given per-RPB table capacity and memory words.
func NewManager(m, n, tableCap, memWords int) *Manager {
	mgr := &Manager{
		M: m, N: n,
		tableCap: tableCap,
		memWords: uint32(memWords),
		programs: make(map[string]*ProgramAlloc),
		nextPID:  1,
	}
	for i := 0; i < m; i++ {
		mgr.rpbs = append(mgr.rpbs, &rpbState{
			freeHead: &partition{start: 0, size: uint32(memWords)},
		})
	}
	return mgr
}

func (m *Manager) rpb(id RPBID) (*rpbState, error) {
	if id < 1 || int(id) > m.M {
		return nil, fmt.Errorf("resource: RPB %d out of range [1,%d]", id, m.M)
	}
	return m.rpbs[id-1], nil
}

// FreeEntries returns the unreserved table entries of an RPB.
func (m *Manager) FreeEntries(id RPBID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.rpb(id)
	if err != nil {
		return 0
	}
	return m.tableCap - st.entriesUsed
}

// MaxContiguous returns the largest free memory partition of an RPB.
func (m *Manager) MaxContiguous(id RPBID) uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.rpb(id)
	if err != nil {
		return 0
	}
	var best uint32
	for p := st.freeHead; p != nil; p = p.next {
		if p.size > best {
			best = p.size
		}
	}
	return best
}

// FreeMemory returns the total free (unallocated, unlocked) words of an RPB.
func (m *Manager) FreeMemory(id RPBID) uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.rpb(id)
	if err != nil {
		return 0
	}
	return m.freeWordsLocked(st)
}

func (m *Manager) freeWordsLocked(st *rpbState) uint32 {
	var total uint32
	for p := st.freeHead; p != nil; p = p.next {
		total += p.size
	}
	return total
}

// reserveEntriesLocked reserves n table entries in an RPB.
func (m *Manager) reserveEntriesLocked(id RPBID, n int) error {
	st, err := m.rpb(id)
	if err != nil {
		return err
	}
	if st.entriesUsed+n > m.tableCap {
		return fmt.Errorf("resource: RPB %d: %d entries requested, %d free", id, n, m.tableCap-st.entriesUsed)
	}
	st.entriesUsed += n
	return nil
}

// allocMemLocked allocates size contiguous words first-fit.
func (m *Manager) allocMemLocked(id RPBID, size uint32) (uint32, error) {
	st, err := m.rpb(id)
	if err != nil {
		return 0, err
	}
	if size == 0 || size&(size-1) != 0 {
		return 0, fmt.Errorf("resource: allocation size %d not a power of two", size)
	}
	for p := st.freeHead; p != nil; p = p.next {
		if p.size < size {
			continue
		}
		start := p.start
		p.start += size
		p.size -= size
		if p.size == 0 {
			// Unlink the exhausted partition.
			if p.prev != nil {
				p.prev.next = p.next
			} else {
				st.freeHead = p.next
			}
			if p.next != nil {
				p.next.prev = p.prev
			}
		}
		return start, nil
	}
	return 0, fmt.Errorf("resource: RPB %d: no contiguous partition of %d words", id, size)
}

// freeMemLocked returns a block to the free list, coalescing neighbours.
func (m *Manager) freeMemLocked(id RPBID, start, size uint32) error {
	st, err := m.rpb(id)
	if err != nil {
		return err
	}
	if start+size > m.memWords {
		return fmt.Errorf("resource: free [%d,%d) exceeds memory", start, start+size)
	}
	// Find insertion point (sorted by start).
	var prev *partition
	cur := st.freeHead
	for cur != nil && cur.start < start {
		prev, cur = cur, cur.next
	}
	if prev != nil && prev.start+prev.size > start {
		return fmt.Errorf("resource: double free at %d (overlaps [%d,%d))", start, prev.start, prev.start+prev.size)
	}
	if cur != nil && start+size > cur.start {
		return fmt.Errorf("resource: double free at %d (overlaps [%d,%d))", start, cur.start, cur.start+cur.size)
	}
	node := &partition{start: start, size: size, prev: prev, next: cur}
	if prev != nil {
		prev.next = node
	} else {
		st.freeHead = node
	}
	if cur != nil {
		cur.prev = node
	}
	// Coalesce with prev.
	if prev != nil && prev.start+prev.size == node.start {
		prev.size += node.size
		prev.next = node.next
		if node.next != nil {
			node.next.prev = prev
		}
		node = prev
	}
	// Coalesce with next.
	if node.next != nil && node.start+node.size == node.next.start {
		node.size += node.next.size
		if node.next.next != nil {
			node.next.next.prev = node
		}
		node.next = node.next.next
	}
	return nil
}

// CanAlloc reports whether size words fit contiguously in the RPB right now.
func (m *Manager) CanAlloc(id RPBID, size uint32) bool {
	return m.MaxContiguous(id) >= size
}

// Commit atomically registers a program's allocation: its memory blocks are
// carved from the free lists and its entry counts reserved. On any failure
// everything is rolled back and an error returned.
func (m *Manager) Commit(alloc *ProgramAlloc) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.programs[alloc.Name]; dup {
		return fmt.Errorf("resource: program %q already linked", alloc.Name)
	}
	var doneBlocks []MemBlock
	var doneEntries []RPBID
	rollback := func() {
		for _, b := range doneBlocks {
			_ = m.freeMemLocked(b.RPB, b.Start, b.Size)
		}
		for i, id := range doneEntries {
			st, _ := m.rpb(id)
			st.entriesUsed -= alloc.Entries[doneEntries[i]]
		}
	}
	for i := range alloc.Blocks {
		b := &alloc.Blocks[i]
		start, err := m.allocMemLocked(b.RPB, b.Size)
		if err != nil {
			rollback()
			return err
		}
		b.Start = start
		doneBlocks = append(doneBlocks, *b)
	}
	for id, n := range alloc.Entries {
		if err := m.reserveEntriesLocked(id, n); err != nil {
			rollback()
			return err
		}
		doneEntries = append(doneEntries, id)
	}
	if alloc.ProgramID == 0 {
		alloc.ProgramID = m.allocPIDLocked()
		alloc.ownsPID = true
	}
	m.programs[alloc.Name] = alloc
	return nil
}

// AllocPID reserves a program ID without committing an allocation — used
// by chain deployments, where one manager owns the chain-wide ID space.
func (m *Manager) AllocPID() uint16 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.allocPIDLocked()
}

// FreePID returns an explicitly reserved program ID.
func (m *Manager) FreePID(pid uint16) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.freePIDs = append(m.freePIDs, pid)
}

func (m *Manager) allocPIDLocked() uint16 {
	if n := len(m.freePIDs); n > 0 {
		pid := m.freePIDs[n-1]
		m.freePIDs = m.freePIDs[:n-1]
		return pid
	}
	pid := m.nextPID
	m.nextPID++
	return pid
}

// BeginRevoke starts terminating a program: its entries are released
// immediately, but its memory blocks are locked — unavailable for
// reallocation — until the caller has reset them on the hardware and calls
// FinishRevoke (paper §4.3: "the locked memory remains unavailable for
// reallocation until the reset is complete").
func (m *Manager) BeginRevoke(name string) (*ProgramAlloc, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	alloc, ok := m.programs[name]
	if !ok {
		return nil, fmt.Errorf("resource: program %q not linked", name)
	}
	for id, n := range alloc.Entries {
		st, err := m.rpb(id)
		if err != nil {
			return nil, err
		}
		st.entriesUsed -= n
	}
	for _, b := range alloc.Blocks {
		st, _ := m.rpb(b.RPB)
		st.lockedWords += b.Size
	}
	delete(m.programs, name)
	return alloc, nil
}

// FinishRevoke unlocks and frees the program's memory after reset.
func (m *Manager) FinishRevoke(alloc *ProgramAlloc) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, b := range alloc.Blocks {
		st, err := m.rpb(b.RPB)
		if err != nil {
			return err
		}
		st.lockedWords -= b.Size
		if err := m.freeMemLocked(b.RPB, b.Start, b.Size); err != nil {
			return err
		}
	}
	if alloc.ownsPID {
		m.freePIDs = append(m.freePIDs, alloc.ProgramID)
	}
	return nil
}

// Reserve adds n table entries in an RPB to a linked program's holdings —
// the incremental-update path, where case blocks are added to a running
// program.
func (m *Manager) Reserve(name string, rpb RPBID, n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	alloc, ok := m.programs[name]
	if !ok {
		return fmt.Errorf("resource: program %q not linked", name)
	}
	if err := m.reserveEntriesLocked(rpb, n); err != nil {
		return err
	}
	alloc.Entries[rpb] += n
	return nil
}

// Release returns n table entries in an RPB from a linked program.
func (m *Manager) Release(name string, rpb RPBID, n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	alloc, ok := m.programs[name]
	if !ok {
		return fmt.Errorf("resource: program %q not linked", name)
	}
	if alloc.Entries[rpb] < n {
		return fmt.Errorf("resource: program %q holds %d entries in RPB %d, cannot release %d", name, alloc.Entries[rpb], rpb, n)
	}
	alloc.Entries[rpb] -= n
	st, err := m.rpb(rpb)
	if err != nil {
		return err
	}
	st.entriesUsed -= n
	return nil
}

// Rename re-keys a linked program's allocation — the commit step of a
// versioned upgrade, where the surviving version takes over the
// operator-visible name. It fails if old is unknown or new is taken.
func (m *Manager) Rename(oldName, newName string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	alloc, ok := m.programs[oldName]
	if !ok {
		return fmt.Errorf("resource: program %q not linked", oldName)
	}
	if _, dup := m.programs[newName]; dup {
		return fmt.Errorf("resource: program %q already linked", newName)
	}
	delete(m.programs, oldName)
	alloc.Name = newName
	m.programs[newName] = alloc
	return nil
}

// Translate maps a program's virtual memory address to its physical RPB and
// word offset — the control-plane side of the paper's address translation.
func (m *Manager) Translate(program, mem string, vaddr uint32) (RPBID, uint32, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	alloc, ok := m.programs[program]
	if !ok {
		return 0, 0, fmt.Errorf("resource: program %q not linked", program)
	}
	for _, b := range alloc.Blocks {
		if b.Name == mem {
			if vaddr >= b.Size {
				return 0, 0, fmt.Errorf("resource: %s/%s: virtual address %d out of [0,%d)", program, mem, vaddr, b.Size)
			}
			return b.RPB, b.Start + vaddr, nil
		}
	}
	return 0, 0, fmt.Errorf("resource: program %q has no memory %q", program, mem)
}

// Utilization summarizes dynamic usage for the experiments and the free
// resources the allocator reads.
type Utilization struct {
	RPB         RPBID
	EntriesUsed int
	EntriesCap  int
	MemUsed     uint32
	MemCap      uint32
	MemFree     uint32 // allocatable words: neither used nor locked
	MaxBlock    uint32 // largest contiguous run of free words
}

// FreeEntries returns the unreserved table entries.
func (u Utilization) FreeEntries() int { return u.EntriesCap - u.EntriesUsed }

// Snapshot returns per-RPB utilization, read under one lock.
func (m *Manager) Snapshot() []Utilization {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Utilization, m.M)
	for i := 0; i < m.M; i++ {
		st := m.rpbs[i]
		u := Utilization{
			RPB:         RPBID(i + 1),
			EntriesUsed: st.entriesUsed,
			EntriesCap:  m.tableCap,
			MemCap:      m.memWords,
		}
		for p := st.freeHead; p != nil; p = p.next {
			u.MemFree += p.size
			u.MaxBlock = max(u.MaxBlock, p.size)
		}
		u.MemUsed = m.memWords - u.MemFree - st.lockedWords
		out[i] = u
	}
	return out
}

// TotalUtilization aggregates Snapshot into chip-wide fractions.
func (m *Manager) TotalUtilization() (memFrac, entryFrac float64) {
	snap := m.Snapshot()
	var mu, mc, eu, ec float64
	for _, u := range snap {
		mu += float64(u.MemUsed)
		mc += float64(u.MemCap)
		eu += float64(u.EntriesUsed)
		ec += float64(u.EntriesCap)
	}
	return mu / mc, eu / ec
}
