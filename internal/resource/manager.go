// Package resource implements P4runpro's resource manager (paper §3.1,
// §4.3): it tracks dynamic usage of every RPB's table entries and stateful
// memory, maintains free memory partitions in doubly-linked lists supporting
// only continuous allocation (first-fit, power-of-two sizes), assigns
// program IDs, locks and resets memory during program termination so stale
// buckets are never handed to a new program, and performs virtual→physical
// address translation for control-plane memory access. It knows no program
// names: the compiler's linked programs hold the blocks, entries and IDs
// handed out here.
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

// Reserve claims n table entries of an RPB.
func (m *Manager) Reserve(id RPBID, n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
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

// Release returns n table entries of an RPB.
func (m *Manager) Release(id RPBID, n int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.rpb(id)
	if err != nil {
		return err
	}
	if st.entriesUsed < n {
		return fmt.Errorf("resource: RPB %d: %d entries released, %d reserved", id, n, st.entriesUsed)
	}
	st.entriesUsed -= n
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

// Commit carves every block from its RPB's free list, first-fit, and fills
// in its Start. On failure nothing stays carved.
func (m *Manager) Commit(blocks []MemBlock) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := range blocks {
		b := &blocks[i]
		start, err := m.allocMemLocked(b.RPB, b.Size)
		if err != nil {
			for _, done := range blocks[:i] {
				_ = m.freeMemLocked(done.RPB, done.Start, done.Size)
			}
			return err
		}
		b.Start = start
	}
	return nil
}

// AllocPID hands out a program ID: the most recently freed one, else the
// next never used.
func (m *Manager) AllocPID() uint16 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.freePIDs); n > 0 {
		pid := m.freePIDs[n-1]
		m.freePIDs = m.freePIDs[:n-1]
		return pid
	}
	pid := m.nextPID
	m.nextPID++
	return pid
}

// FreePID returns a program ID for reuse.
func (m *Manager) FreePID(pid uint16) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.freePIDs = append(m.freePIDs, pid)
}

// BeginRevoke locks committed blocks: they stay unavailable for
// reallocation until the caller has reset them on the hardware and calls
// FinishRevoke (paper §4.3: "the locked memory remains unavailable for
// reallocation until the reset is complete").
func (m *Manager) BeginRevoke(blocks []MemBlock) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, b := range blocks {
		m.rpbs[b.RPB-1].lockedWords += b.Size
	}
}

// FinishRevoke unlocks and frees blocks after their reset.
func (m *Manager) FinishRevoke(blocks []MemBlock) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, b := range blocks {
		st, err := m.rpb(b.RPB)
		if err != nil {
			return err
		}
		st.lockedWords -= b.Size
		if err := m.freeMemLocked(b.RPB, b.Start, b.Size); err != nil {
			return err
		}
	}
	return nil
}

// Translate maps a virtual address of the block, held by program, to its
// physical word offset in b.RPB — the control-plane side of the paper's
// address translation.
func (b MemBlock) Translate(program string, vaddr uint32) (uint32, error) {
	if vaddr >= b.Size {
		return 0, fmt.Errorf("resource: %s/%s: virtual address %d out of [0,%d)", program, b.Name, vaddr, b.Size)
	}
	return b.Start + vaddr, nil
}

// Utilization summarizes dynamic usage for the experiments and the free
// resources the allocator reads; it is the one read of free space.
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
