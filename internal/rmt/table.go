package rmt

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"p4runpro/internal/faults"
)

// fpInsert is the table-entry installation fault point (see internal/faults):
// chaos tests arm it to prove a mid-link insert failure rolls the whole
// program back with every resource released.
var fpInsert = faults.Register("rmt.table.insert")

// EntryID names an installed entry for later deletion.
type EntryID uint64

// TernaryKey is one ternary match field: packet matches when
// key & Mask == Value & Mask. A full mask is an exact match; a zero mask is
// a wildcard.
type TernaryKey struct {
	Value uint32
	Mask  uint32
}

// Exact builds a full-mask key.
func Exact(v uint32) TernaryKey { return TernaryKey{Value: v, Mask: ^uint32(0)} }

// Wild builds a zero-mask (always-matching) key.
func Wild() TernaryKey { return TernaryKey{} }

// Matches reports whether the extracted key value satisfies the ternary key.
func (k TernaryKey) Matches(v uint32) bool { return v&k.Mask == k.Value&k.Mask }

// ActionFunc executes a bound action against the PHV with entry parameters.
type ActionFunc func(*PHV, []uint32)

// Entry is an installed table entry.
type Entry struct {
	ID       EntryID
	Keys     []TernaryKey
	Priority int // higher wins among overlapping ternary entries
	Action   string
	Params   []uint32
	Owner    string // installing program, for bookkeeping and debugging

	// fn is Action's implementation, bound once when Insert builds the entry
	// so a hit costs no action-map lookup. The binding never goes stale: a
	// table's action set only grows (RegisterAction rejects duplicates).
	fn ActionFunc

	// hits counts packets this entry matched (a direct counter, read via
	// Hits); updated atomically because lookups run lock-free.
	hits uint64
}

// Hits returns the entry's direct counter.
func (e *Entry) Hits() uint64 { return atomic.LoadUint64(&e.hits) }

// tableState is the immutable published match state of a table: the declared
// key containers, the bucket index, the wildcard list, the action set, and
// the resolved default action.
// Every mutation builds a fresh tableState under the writer lock and
// publishes it with one atomic pointer store, so the packet path reads a
// consistent snapshot without taking any lock — the simulator's model of the
// RMT architecture's per-entry update atomicity that P4runpro's consistent
// update relies on (paper §4.3/§5). A snapshot is never mutated after
// publication; entries are shared between snapshots (their hit counters are
// atomics and survive republication).
type tableState struct {
	// keyIdx, when non-nil, declares that the key vector is exactly these
	// PHV containers in order (SetPHVKeyFields): Apply reads them directly
	// instead of calling keyFunc.
	keyIdx []int

	actions map[string]actionDef
	// exact-first-key index: RPB tables always match the program ID
	// exactly as their first key, so bucket entries by it; entries whose
	// first key is not a full mask go to the wildcard list.
	buckets  map[uint32][]*Entry
	wildcard []*Entry
	count    int

	defaultName   string
	defaultFn     ActionFunc
	defaultParams []uint32
}

// clone shallow-copies the state: fresh maps, shared entry slices. Writers
// replace any slice they modify with a copy before publishing.
func (st *tableState) clone() *tableState {
	ns := *st
	ns.buckets = make(map[uint32][]*Entry, len(st.buckets)+1)
	for k, v := range st.buckets {
		ns.buckets[k] = v
	}
	return &ns
}

// Table is a stage-resident ternary match-action table. Lookups (Apply,
// Lookup, and all read accessors) are lock-free against an atomically
// published snapshot; mutations serialize on a writer mutex, rebuild the
// snapshot copy-on-write, and publish it in one atomic store. Packets
// therefore always observe either the pre-update or the post-update entry
// set, never a torn mix.
type Table struct {
	Name     string
	Gress    Gress
	Stage    int
	capacity int

	keyFunc func(*PHV) []uint32
	nkeys   int

	mu     sync.Mutex // serializes writers; readers never take it
	nextID EntryID
	state  atomic.Pointer[tableState]

	hits, misses atomic.Uint64
}

// SetPHVKeyFields declares that the table's key extractor reads exactly the
// named PHV scratch fields, in key order, so Apply can replace the generic
// keyFunc with direct container reads. The field count must match the
// table's key count, and every name must be defined in the layout. The
// declaration is published with the rest of the match state, so it is safe
// while traffic flows: a packet extracts keys one way or the other, and both
// yield the same vector.
func (t *Table) SetPHVKeyFields(layout *PHVLayout, names ...string) error {
	if len(names) != t.nkeys {
		return fmt.Errorf("rmt: table %s: %d key fields declared, want %d", t.Name, len(names), t.nkeys)
	}
	idx := make([]int, len(names))
	for i, n := range names {
		j, ok := layout.Index(n)
		if !ok {
			return fmt.Errorf("rmt: table %s: key field %q not defined in PHV layout", t.Name, n)
		}
		idx[i] = j
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ns := t.state.Load().clone()
	ns.keyIdx = idx
	t.state.Store(ns)
	return nil
}

type actionDef struct {
	fn        ActionFunc
	vliwSlots int
}

// NewTable creates a table bound to a stage. keyFunc extracts nkeys 32-bit
// key values from the PHV per lookup.
func NewTable(name string, g Gress, stage, capacity, nkeys int, keyFunc func(*PHV) []uint32) *Table {
	t := &Table{
		Name:     name,
		Gress:    g,
		Stage:    stage,
		capacity: capacity,
		keyFunc:  keyFunc,
		nkeys:    nkeys,
	}
	t.state.Store(&tableState{
		actions: make(map[string]actionDef),
		buckets: make(map[uint32][]*Entry),
	})
	return t
}

// RegisterAction binds an action implementation at provisioning time.
// vliwSlots is the number of VLIW instruction slots the action occupies, for
// resource accounting.
func (t *Table) RegisterAction(name string, vliwSlots int, fn ActionFunc) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.state.Load()
	if _, dup := cur.actions[name]; dup {
		return fmt.Errorf("rmt: table %s: action %q already registered", t.Name, name)
	}
	ns := cur.clone()
	ns.actions = make(map[string]actionDef, len(cur.actions)+1)
	for k, v := range cur.actions {
		ns.actions[k] = v
	}
	ns.actions[name] = actionDef{fn: fn, vliwSlots: vliwSlots}
	t.state.Store(ns)
	return nil
}

// SetDefault configures the miss action; an empty name clears it.
func (t *Table) SetDefault(action string, params ...uint32) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.state.Load()
	var fn ActionFunc
	if action != "" {
		def, ok := cur.actions[action]
		if !ok {
			return fmt.Errorf("rmt: table %s: unknown default action %q", t.Name, action)
		}
		fn = def.fn
	}
	ns := cur.clone()
	ns.defaultName = action
	ns.defaultFn = fn
	ns.defaultParams = params
	t.state.Store(ns)
	return nil
}

// Insert installs an entry atomically. It fails when the table is full, the
// action is unknown, or the key count is wrong.
func (t *Table) Insert(keys []TernaryKey, priority int, action string, params []uint32, owner string) (EntryID, error) {
	if err := fpInsert.Check(); err != nil {
		return 0, fmt.Errorf("rmt: table %s: insert: %w", t.Name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.state.Load()
	if len(keys) != t.nkeys {
		return 0, fmt.Errorf("rmt: table %s: entry has %d keys, want %d", t.Name, len(keys), t.nkeys)
	}
	def, ok := cur.actions[action]
	if !ok {
		return 0, fmt.Errorf("rmt: table %s: unknown action %q", t.Name, action)
	}
	if cur.count >= t.capacity {
		return 0, fmt.Errorf("rmt: table %s: full (%d entries)", t.Name, t.capacity)
	}
	t.nextID++
	e := &Entry{ID: t.nextID, Keys: keys, Priority: priority, Action: action, Params: params, Owner: owner, fn: def.fn}
	ns := cur.clone()
	if keys[0].Mask == ^uint32(0) {
		ns.buckets[keys[0].Value] = insertByPriority(copyEntries(cur.buckets[keys[0].Value]), e)
	} else {
		ns.wildcard = insertByPriority(copyEntries(cur.wildcard), e)
	}
	ns.count++
	t.state.Store(ns)
	return e.ID, nil
}

// copyEntries returns a fresh slice with one spare slot, so insertByPriority
// never aliases the published snapshot's backing array.
func copyEntries(list []*Entry) []*Entry {
	out := make([]*Entry, len(list), len(list)+1)
	copy(out, list)
	return out
}

// insertByPriority places e after all existing entries of priority >=
// e.Priority (stable: earlier installs win ties), keeping the slice sorted
// by descending priority without re-sorting.
func insertByPriority(list []*Entry, e *Entry) []*Entry {
	idx := sort.Search(len(list), func(i int) bool { return list[i].Priority < e.Priority })
	list = append(list, nil)
	copy(list[idx+1:], list[idx:])
	list[idx] = e
	return list
}

// Delete removes an entry atomically.
func (t *Table) Delete(id EntryID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.state.Load()
	for k, b := range cur.buckets {
		for i, e := range b {
			if e.ID == id {
				ns := cur.clone()
				if len(b) == 1 {
					delete(ns.buckets, k)
				} else {
					nb := make([]*Entry, 0, len(b)-1)
					nb = append(nb, b[:i]...)
					nb = append(nb, b[i+1:]...)
					ns.buckets[k] = nb
				}
				ns.count--
				t.state.Store(ns)
				return nil
			}
		}
	}
	for i, e := range cur.wildcard {
		if e.ID == id {
			ns := cur.clone()
			nw := make([]*Entry, 0, len(cur.wildcard)-1)
			nw = append(nw, cur.wildcard[:i]...)
			nw = append(nw, cur.wildcard[i+1:]...)
			ns.wildcard = nw
			ns.count--
			t.state.Store(ns)
			return nil
		}
	}
	return fmt.Errorf("rmt: table %s: entry %d not found", t.Name, id)
}

// DeleteOwned removes every entry installed under owner and returns how many
// were deleted.
func (t *Table) DeleteOwned(owner string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.state.Load()
	n := 0
	ns := cur.clone()
	for k, b := range cur.buckets {
		kept := make([]*Entry, 0, len(b))
		for _, e := range b {
			if e.Owner == owner {
				n++
			} else {
				kept = append(kept, e)
			}
		}
		if len(kept) == 0 {
			delete(ns.buckets, k)
		} else {
			ns.buckets[k] = kept
		}
	}
	kept := make([]*Entry, 0, len(cur.wildcard))
	for _, e := range cur.wildcard {
		if e.Owner == owner {
			n++
		} else {
			kept = append(kept, e)
		}
	}
	ns.wildcard = kept
	ns.count -= n
	t.state.Store(ns)
	return n
}

// Reown transfers every entry installed under oldOwner to newOwner. Owner
// is read lock-free on the packet path (postcards, OwnerHits), so entries
// are replaced copy-on-write rather than mutated in place: each moved entry
// is a fresh Entry with the same ID, keys, priority, action, and parameters,
// seeded with the old entry's hit count at the moment of the swap. Hits
// landing on the retiring entry between that read and the snapshot
// publication are lost — the same bounded in-flight tolerance as any
// published-snapshot mutation. Returns the number of entries moved.
func (t *Table) Reown(oldOwner, newOwner string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.state.Load()
	n := 0
	reown := func(list []*Entry) []*Entry {
		touched := false
		for _, e := range list {
			if e.Owner == oldOwner {
				touched = true
				break
			}
		}
		if !touched {
			return list
		}
		out := make([]*Entry, len(list))
		for i, e := range list {
			if e.Owner != oldOwner {
				out[i] = e
				continue
			}
			out[i] = &Entry{
				ID: e.ID, Keys: e.Keys, Priority: e.Priority,
				Action: e.Action, Params: e.Params, Owner: newOwner,
				fn: e.fn, hits: e.Hits(),
			}
			n++
		}
		return out
	}
	ns := cur.clone()
	for k, b := range cur.buckets {
		ns.buckets[k] = reown(b)
	}
	ns.wildcard = reown(cur.wildcard)
	if n == 0 {
		return 0
	}
	t.state.Store(ns)
	return n
}

// Apply performs one match-action lookup for the packet. It returns whether
// an entry (or the default action) was executed. The match resolves against
// one immutable snapshot, so concurrent Insert/Delete can never expose a
// half-updated entry set; hit/miss counters are atomics.
func (t *Table) Apply(p *PHV) bool {
	st := t.state.Load()
	var keyVals []uint32
	if st.keyIdx != nil {
		keyVals = p.keyScratchRaw(len(st.keyIdx))
		// PHV.Set masks on write, so a raw container read equals Get.
		for i, idx := range st.keyIdx {
			keyVals[i] = p.vals[idx]
		}
	} else {
		keyVals = t.keyFunc(p)
	}
	e := st.lookup(keyVals)
	var fn ActionFunc
	var params []uint32
	switch {
	case e != nil:
		fn = e.fn
		params = e.Params
		atomic.AddUint64(&e.hits, 1)
		t.hits.Add(1)
	case st.defaultFn != nil:
		fn = st.defaultFn
		params = st.defaultParams
		t.misses.Add(1)
	default:
		t.misses.Add(1)
	}
	if p.trace != nil && (e != nil || st.defaultFn != nil) {
		// Postcard-sampled packet: record the executed hop. Pure misses (no
		// default) are skipped — no action ran, so there is no step to trace.
		h := PostcardHop{Gress: t.Gress, Stage: t.Stage, Table: t.Name}
		if e != nil {
			h.Action, h.Owner, h.Match = e.Action, e.Owner, true
		} else {
			h.Action = st.defaultName
		}
		p.trace.hop(h)
	}
	if fn == nil {
		return false
	}
	fn(p, params)
	return true
}

func (st *tableState) lookup(keyVals []uint32) *Entry {
	var best *Entry
	if b, ok := st.buckets[keyVals[0]]; ok {
		for _, e := range b {
			if matchAll(e.Keys, keyVals) {
				best = e
				break // bucket sorted by priority
			}
		}
	}
	for _, e := range st.wildcard {
		if best != nil && (e.Priority < best.Priority || e.Priority == best.Priority && e.ID > best.ID) {
			break // wildcard sorted by priority, then by install order
		}
		if matchAll(e.Keys, keyVals) {
			best = e
			break
		}
	}
	return best
}

func matchAll(keys []TernaryKey, vals []uint32) bool {
	for i, k := range keys {
		if !k.Matches(vals[i]) {
			return false
		}
	}
	return true
}

// Lookup returns the entry that would match the given key values, without
// executing its action. Used by tests and the consistency checker.
func (t *Table) Lookup(keyVals []uint32) *Entry {
	if len(keyVals) != t.nkeys {
		return nil
	}
	return t.state.Load().lookup(keyVals)
}

// Len returns the installed entry count.
func (t *Table) Len() int { return t.state.Load().count }

// Capacity returns the entry capacity.
func (t *Table) Capacity() int { return t.capacity }

// Free returns the remaining entry capacity.
func (t *Table) Free() int { return t.capacity - t.state.Load().count }

// Stats returns cumulative hit and miss counters.
func (t *Table) Stats() (hits, misses uint64) {
	return t.hits.Load(), t.misses.Load()
}

// OwnerHits sums the direct counters of every entry a program owns — the
// control plane's per-program monitoring primitive.
func (t *Table) OwnerHits(owner string) uint64 {
	st := t.state.Load()
	var total uint64
	for _, b := range st.buckets {
		for _, e := range b {
			if e.Owner == owner {
				total += e.Hits()
			}
		}
	}
	for _, e := range st.wildcard {
		if e.Owner == owner {
			total += e.Hits()
		}
	}
	return total
}

// VLIWUsage sums the VLIW slots of all registered actions.
func (t *Table) VLIWUsage() int {
	n := 0
	for _, a := range t.state.Load().actions {
		n += a.vliwSlots
	}
	return n
}

// ActionCount returns the number of registered actions.
func (t *Table) ActionCount() int { return len(t.state.Load().actions) }

// Entries returns a snapshot of installed entries (for tests/inspection).
func (t *Table) Entries() []*Entry {
	st := t.state.Load()
	out := make([]*Entry, 0, st.count)
	for _, b := range st.buckets {
		out = append(out, b...)
	}
	out = append(out, st.wildcard...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
