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
	// Hits), added to atomically because lookups run lock-free: once per
	// packet by Apply, once per run of hits by a switch burst's flush.
	hits uint64
}

// Hits returns the entry's direct counter.
func (e *Entry) Hits() uint64 { return atomic.LoadUint64(&e.hits) }

// before orders entries by match preference: higher priority first, then the
// earlier install (lower ID).
func before(a, b *Entry) bool {
	return a.Priority > b.Priority || a.Priority == b.Priority && a.ID < b.ID
}

// tableState is the immutable published match state of a table: the declared
// key containers, the tuple-space match index, and the resolved default
// action.
// Every mutation builds a fresh tableState under the writer lock and
// publishes it with one atomic pointer store, so the packet path reads a
// consistent snapshot without taking any lock — the simulator's model of the
// RMT architecture's per-entry update atomicity that P4runpro's consistent
// update relies on (paper §4.3/§5). A snapshot is never mutated after
// publication. Snapshots share everything a mutation did not touch: an entry
// insert or delete copies this header, the group slice, the touched group's
// header, one hash page of it and one chain's links up to the change.
// Entries are shared too (their hit counters are atomics and survive
// republication).
type tableState struct {
	// keyIdx, when non-nil, declares that the key vector is exactly these
	// PHV containers in order (SetPHVKeyFields): Apply reads them directly
	// instead of calling keyFunc.
	keyIdx []int

	// groups is the match index: one group per distinct mask vector, in
	// descending maxPrio order (tuple-space search).
	groups []*group
	count  int

	defaultName   string
	defaultFn     ActionFunc
	defaultParams []uint32
}

const (
	// pageBits sizes a hash page at 1<<pageBits chains: the unit of
	// copy-on-write below a group header.
	pageBits  = 5
	pageSlots = 1 << pageBits
	// maxLoad is the mean chain length at which a group doubles its chains.
	maxLoad = 2
)

// group holds every entry of one mask vector — one tuple of tuple-space
// search (Srinivasan et al., SIGCOMM 1999). An entry lives in the chain its
// masked key hashes to, the hash taken over the key positions with a non-zero
// mask only. A chain is sorted by before, so the first entry in it whose
// masked key equals the packet's is the group's match. Chains are held in
// fixed-size pages, so a mutation copies the header (its page directory),
// one page, and the links of one chain up to the change, never the whole
// group.
type group struct {
	gen     uint64   // the Table.gen of the mutation that made this header
	masks   []uint32 // the mask vector, one word per key
	fields  []field  // the key positions with a non-zero mask
	maxPrio int      // upper bound on the group's priorities; a delete may leave it stale high
	count   int
	shift   uint // a hash's top 64-shift bits pick the chain
	pages   []*page
}

// field is one key position a group hashes and compares.
type field struct {
	i    int
	mask uint32
}

// page is one copy-on-write unit of a group's chains.
type page struct {
	gen    uint64
	chains [pageSlots]*link
}

// link is one cell of a chain. Links are immutable, so snapshots share the
// part of a chain a mutation did not reach.
type link struct {
	e    *Entry
	next *link
}

// withEntry returns chain c with e in its sorted place.
func withEntry(c *link, e *Entry) *link {
	if c == nil || before(e, c.e) {
		return &link{e, c}
	}
	return &link{c.e, withEntry(c.next, e)}
}

// without returns chain c with old removed, or with old replaced by e when e
// is not nil. old must be in c.
func without(c *link, old, e *Entry) *link {
	if c.e != old {
		return &link{c.e, without(c.next, old, e)}
	}
	if e == nil {
		return c.next
	}
	return &link{e, c.next}
}

func newGroup(keys []TernaryKey, gen uint64) *group {
	g := &group{gen: gen, masks: make([]uint32, len(keys)), shift: 64 - pageBits, pages: []*page{{gen: gen}}}
	for i, k := range keys {
		g.masks[i] = k.Mask
		if k.Mask != 0 {
			g.fields = append(g.fields, field{i, k.Mask})
		}
	}
	return g
}

// mix folds one masked key word into a hash (Fibonacci hashing: the product's
// top bits depend on every input bit, and the top bits pick the chain).
func mix(h uint64, v uint32) uint64 { return (h ^ uint64(v)) * 0x9e3779b97f4a7c15 }

// holds reports whether keys has g's mask vector.
func (g *group) holds(keys []TernaryKey) bool {
	for i, k := range keys {
		if k.Mask != g.masks[i] {
			return false
		}
	}
	return true
}

// chainOf returns the index of the chain an entry with these keys lives in.
func (g *group) chainOf(keys []TernaryKey) uint64 {
	var h uint64
	for _, f := range g.fields {
		h = mix(h, keys[f.i].Value&f.mask)
	}
	return h >> g.shift
}

// each calls fn for every installed entry, in no particular order.
func (st *tableState) each(fn func(*Entry)) {
	for _, g := range st.groups {
		for _, pg := range g.pages {
			for _, c := range pg.chains {
				for ; c != nil; c = c.next {
					fn(c.e)
				}
			}
		}
	}
}

// groupOf returns the index of the group with keys' mask vector, or -1.
func (st *tableState) groupOf(keys []TernaryKey) int {
	for i, g := range st.groups {
		if g.holds(keys) {
			return i
		}
	}
	return -1
}

// Table is a stage-resident ternary match-action table. Lookups (Apply,
// Lookup, and the entry and counter accessors) are lock-free against an
// atomically published snapshot; mutations serialize on a writer mutex,
// rebuild the snapshot copy-on-write, and publish it in one atomic store.
// Packets therefore always observe either the pre-update or the post-update
// entry set, never a torn mix.
type Table struct {
	Name     string
	Gress    Gress
	Stage    int
	capacity int

	keyFunc func(*PHV) []uint32
	nkeys   int

	mu     sync.Mutex // serializes writers; the packet path never takes it
	nextID EntryID
	// gen numbers entry-index mutations. A group header or page stamped with
	// the current gen was made by the mutation in progress, is not published
	// yet, and is written in place; anything older is copied first.
	gen uint64
	// byID locates installed entries for Delete, DeleteOwned and Reown. It is
	// the writer's own index: never published, read and written under mu.
	byID map[EntryID]*Entry
	// actions is the registered action set, also the writer's own: packets
	// never look an action up (entries carry theirs, bound at Insert).
	actions map[string]actionDef
	state   atomic.Pointer[tableState]
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
	ns := *t.state.Load()
	ns.keyIdx = idx
	t.state.Store(&ns)
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
		byID:     make(map[EntryID]*Entry),
		actions:  make(map[string]actionDef),
	}
	t.state.Store(&tableState{})
	return t
}

// RegisterAction binds an action implementation at provisioning time.
// vliwSlots is the number of VLIW instruction slots the action occupies, for
// resource accounting.
func (t *Table) RegisterAction(name string, vliwSlots int, fn ActionFunc) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.actions[name]; dup {
		return fmt.Errorf("rmt: table %s: action %q already registered", t.Name, name)
	}
	t.actions[name] = actionDef{fn: fn, vliwSlots: vliwSlots}
	return nil
}

// SetDefault configures the miss action; an empty name clears it.
func (t *Table) SetDefault(action string, params ...uint32) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	var fn ActionFunc
	if action != "" {
		def, ok := t.actions[action]
		if !ok {
			return fmt.Errorf("rmt: table %s: unknown default action %q", t.Name, action)
		}
		fn = def.fn
	}
	ns := *t.state.Load()
	ns.defaultName = action
	ns.defaultFn = fn
	ns.defaultParams = params
	t.state.Store(&ns)
	return nil
}

// edit starts an entry-index mutation under a fresh gen: a copy of the
// published state with a group slice of its own.
func (t *Table) edit() *tableState {
	t.gen++
	ns := *t.state.Load()
	ns.groups = append([]*group(nil), ns.groups...)
	return &ns
}

// ownGroup returns ns.groups[i] writable by the mutation in progress, copying
// its header and page directory (not its pages) on first touch.
func (t *Table) ownGroup(ns *tableState, i int) *group {
	g := ns.groups[i]
	if g.gen != t.gen {
		c := *g
		c.gen = t.gen
		c.pages = append([]*page(nil), g.pages...)
		g = &c
		ns.groups[i] = g
	}
	return g
}

// chain returns the chain an entry with these keys lives in, on a page of the
// owned group g that the mutation in progress owns too.
func (t *Table) chain(g *group, keys []TernaryKey) **link {
	i := g.chainOf(keys)
	pg := g.pages[i>>pageBits]
	if pg.gen != t.gen {
		c := *pg
		c.gen = t.gen
		pg = &c
		g.pages[i>>pageBits] = pg
	}
	return &pg.chains[i&(pageSlots-1)]
}

// grow doubles the owned group g's chains onto fresh pages. With top-bits
// chain selection, old chain i splits into new chains 2i and 2i+1 only, so
// prepending its entries in reverse keeps both sorted, in time linear in the
// chain even when every entry shares one masked key.
func (t *Table) grow(g *group) {
	old := g.pages
	g.pages = make([]*page, 2*len(old))
	for j := range g.pages {
		g.pages[j] = &page{gen: t.gen}
	}
	g.shift--
	var es []*Entry
	for _, pg := range old {
		for _, c := range pg.chains {
			for es = es[:0]; c != nil; c = c.next {
				es = append(es, c.e)
			}
			for j := len(es) - 1; j >= 0; j-- {
				ch := t.chain(g, es[j].Keys)
				*ch = &link{es[j], *ch}
			}
		}
	}
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
	def, ok := t.actions[action]
	if !ok {
		return 0, fmt.Errorf("rmt: table %s: unknown action %q", t.Name, action)
	}
	if cur.count >= t.capacity {
		return 0, fmt.Errorf("rmt: table %s: full (%d entries)", t.Name, t.capacity)
	}
	t.nextID++
	e := &Entry{ID: t.nextID, Keys: keys, Priority: priority, Action: action, Params: params, Owner: owner, fn: def.fn}
	ns := t.edit()
	i := ns.groupOf(keys)
	if i < 0 {
		i = len(ns.groups)
		ns.groups = append(ns.groups, newGroup(keys, t.gen))
	}
	g := t.ownGroup(ns, i)
	if g.count >= maxLoad*pageSlots*len(g.pages) {
		t.grow(g)
	}
	ch := t.chain(g, keys)
	*ch = withEntry(*ch, e)
	if g.count == 0 || priority > g.maxPrio {
		// The only reorder: a group's bound rose, so it moves forward.
		g.maxPrio = priority
		for ; i > 0 && ns.groups[i-1].maxPrio < priority; i-- {
			ns.groups[i-1], ns.groups[i] = ns.groups[i], ns.groups[i-1]
		}
	}
	g.count++
	ns.count++
	t.byID[e.ID] = e
	t.state.Store(ns)
	return e.ID, nil
}

// unlink removes installed entry e from the mutation in progress, dropping
// its group once empty. The group's maxPrio stays as it was: still an upper
// bound, so lookup order and early exit remain correct.
func (t *Table) unlink(ns *tableState, e *Entry) {
	ns.count--
	i := ns.groupOf(e.Keys)
	if ns.groups[i].count == 1 {
		ns.groups = append(ns.groups[:i], ns.groups[i+1:]...)
		return
	}
	g := t.ownGroup(ns, i)
	g.count--
	ch := t.chain(g, e.Keys)
	*ch = without(*ch, e, nil)
}

// Delete removes an entry atomically.
func (t *Table) Delete(id EntryID) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	e, ok := t.byID[id]
	if !ok {
		return fmt.Errorf("rmt: table %s: entry %d not found", t.Name, id)
	}
	ns := t.edit()
	t.unlink(ns, e)
	delete(t.byID, id)
	t.state.Store(ns)
	return nil
}

// DeleteOwned removes every entry installed under owner and returns how many
// were deleted.
func (t *Table) DeleteOwned(owner string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns *tableState
	n := 0
	for id, e := range t.byID {
		if e.Owner != owner {
			continue
		}
		if ns == nil {
			ns = t.edit()
		}
		t.unlink(ns, e)
		delete(t.byID, id)
		n++
	}
	if ns != nil {
		t.state.Store(ns)
	}
	return n
}

// Reown transfers every entry installed under oldOwner to newOwner. Owner
// is read lock-free on the packet path (postcards, OwnerHits), so entries
// are replaced copy-on-write rather than mutated in place: each moved entry
// is a fresh Entry with the same ID, keys, priority, action, and parameters,
// seeded with the old entry's hit count at the moment of the swap. A switch
// burst tallies hits per entry and adds them when it returns, so the hits a
// burst in flight at the swap tallied for the retiring entry land on it, not
// on the moved one, and are lost to OwnerHits: at most one burst's worth per
// entry. A Reown between bursts loses nothing. Returns the number of entries
// moved.
func (t *Table) Reown(oldOwner, newOwner string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns *tableState
	n := 0
	for id, e := range t.byID {
		if e.Owner != oldOwner {
			continue
		}
		if ns == nil {
			ns = t.edit()
		}
		moved := &Entry{
			ID: e.ID, Keys: e.Keys, Priority: e.Priority,
			Action: e.Action, Params: e.Params, Owner: newOwner,
			fn: e.fn, hits: e.Hits(),
		}
		ch := t.chain(t.ownGroup(ns, ns.groupOf(e.Keys)), e.Keys)
		*ch = without(*ch, e, moved)
		t.byID[id] = moved
		n++
	}
	if ns != nil {
		t.state.Store(ns)
	}
	return n
}

// Apply performs one match-action lookup for the packet and counts a hit on
// the matched entry. It returns whether an entry (or the default action) was
// executed. The match resolves against one immutable snapshot, so concurrent
// Insert/Delete can never expose a half-updated entry set.
//
// Only tests call Apply, on a table outside any switch. Its hit count is one
// shared atomic add per packet, which the packet path must not pay: the
// switch calls apply and tallies hits per burst (see burstTally).
func (t *Table) Apply(p *PHV) bool {
	e, ran := t.apply(p)
	if e != nil {
		atomic.AddUint64(&e.hits, 1)
	}
	return ran
}

// apply is Apply without the hit count: it returns the matched entry (nil on
// a miss) and whether an action ran, and leaves counting to the caller.
func (t *Table) apply(p *PHV) (*Entry, bool) {
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
	fn, params := st.defaultFn, st.defaultParams
	if e != nil {
		fn, params = e.fn, e.Params
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
		return e, false
	}
	fn(p, params)
	return e, true
}

// lookup probes the groups in descending maxPrio, one hash probe each, and
// stops at the first group whose bound is below the best match so far; an
// equal bound is still probed, as it may hold an earlier install. In a group,
// the first chain entry whose masked key equals the packet's is its match.
func (st *tableState) lookup(keyVals []uint32) *Entry {
	var best *Entry
	for _, g := range st.groups {
		if best != nil && g.maxPrio < best.Priority {
			break
		}
		var h uint64
		for _, f := range g.fields {
			h = mix(h, keyVals[f.i]&f.mask)
		}
		i := h >> g.shift
	chain:
		for c := g.pages[i>>pageBits].chains[i&(pageSlots-1)]; c != nil; c = c.next {
			for _, f := range g.fields {
				if (keyVals[f.i]^c.e.Keys[f.i].Value)&f.mask != 0 {
					continue chain
				}
			}
			if best == nil || before(c.e, best) {
				best = c.e
			}
			break
		}
	}
	return best
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

// OwnerHits sums the direct counters of every entry a program owns — the
// control plane's per-program monitoring primitive.
func (t *Table) OwnerHits(owner string) uint64 {
	var total uint64
	t.state.Load().each(func(e *Entry) {
		if e.Owner == owner {
			total += e.Hits()
		}
	})
	return total
}

// VLIWUsage sums the VLIW slots of all registered actions.
func (t *Table) VLIWUsage() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, a := range t.actions {
		n += a.vliwSlots
	}
	return n
}

// ActionCount returns the number of registered actions.
func (t *Table) ActionCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.actions)
}

// Entries returns a snapshot of installed entries in ID order, for tests and
// inspection; no control path needs it.
func (t *Table) Entries() []*Entry {
	st := t.state.Load()
	out := make([]*Entry, 0, st.count)
	st.each(func(e *Entry) { out = append(out, e) })
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
