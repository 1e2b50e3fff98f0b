package rmt

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"p4runpro/internal/faults"
	"p4runpro/internal/pkt"
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

	// fn is Action's implementation, bound once when Update builds the entry
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
// key containers, the parse-path gate, the tuple-space match index, and the
// resolved default action.
// Every mutation builds a fresh tableState under the writer lock and
// publishes it with one atomic pointer store, so the packet path reads a
// consistent snapshot without taking any lock — the simulator's model of the
// RMT architecture's update atomicity that P4runpro's consistent update
// relies on (paper §4.3/§5). A snapshot is never mutated after publication.
// Snapshots share everything a mutation did not touch: an entry insert or
// delete copies this header, the group slice, the touched group's header,
// one hash page of it, one chain's cells up to the change and one path of
// that cell's run; a batch copies each of them at most once.
// Entries are shared too (their hit counters are atomics and survive
// republication).
type tableState struct {
	// gate is whether the table can act on a packet, the first thing apply
	// reads. publish derives it from the fields below.
	gate gate

	// onPath gates the table on one parsing path (SetParsePath): it applies
	// only to packets whose parse bitmap is path, and every entry matches
	// exactly path at key position pathKey.
	onPath  bool
	path    pkt.ParseBitmap
	pathKey int

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

// gate says which packets a table snapshot can act on.
type gate uint8

const (
	gateOpen  gate = iota // any packet
	gateInert             // none: no entry and no default action
	gatePath              // packets of parse path tableState.path only
)

// publish derives ns's gate and makes ns the table's snapshot.
func (t *Table) publish(ns *tableState) {
	switch {
	case ns.count == 0 && ns.defaultFn == nil:
		ns.gate = gateInert
	case ns.onPath:
		ns.gate = gatePath
	default:
		ns.gate = gateOpen
	}
	t.state.Store(ns)
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
// search (Srinivasan et al., SIGCOMM 1999). Entries with equal masked keys
// share one cell, and a cell lives in the chain its masked key hashes to, the
// hash taken over the key positions with a non-zero mask only. A cell's head
// is the best of its entries by before, so the cell whose masked key equals
// the packet's is the group's match and its head is the matched entry.
// Chains are held in fixed-size pages, so a mutation copies the header (its
// page directory), one page, and the cells of one chain up to the change,
// never the whole group.
type group struct {
	gen     uint64   // the Table.gen of the mutation that made this header
	masks   []uint32 // the mask vector, one word per key
	fields  []field  // the key positions with a non-zero mask
	maxPrio int      // upper bound on the group's priorities; a delete may leave it stale high
	count   int      // entries
	cells   int      // distinct masked keys: the load a group grows by
	shift   uint     // a hash's top 64-shift bits pick the chain
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

// link is one cell of a chain: the entries of one masked key, e the best of
// them and run the rest. Links are immutable, so snapshots share the part of
// a chain a mutation did not reach.
type link struct {
	e    *Entry
	run  *node
	next *link
}

// same reports whether a and b have the same masked key in g.
func (g *group) same(a, b *Entry) bool {
	for _, f := range g.fields {
		if (a.Keys[f.i].Value^b.Keys[f.i].Value)&f.mask != 0 {
			return false
		}
	}
	return true
}

// with returns chain c with e added to the cell of its masked key (as the
// head when e comes before the head, else to the run), or as a new cell at
// the chain's end when no cell has its key.
func (g *group) with(c *link, e *Entry) *link {
	switch {
	case c == nil:
		g.cells++
		return &link{e: e}
	case !g.same(c.e, e):
		return &link{c.e, c.run, g.with(c.next, e)}
	case before(e, c.e):
		return &link{e, c.run.with(c.e), c.next}
	}
	return &link{c.e, c.run.with(e), c.next}
}

// without returns chain c with old removed, or with old replaced by e when e
// is not nil (e then has old's ID, priority and keys). old must be in c. A
// removed head hands the cell to the best of its run; a cell left empty goes.
func (g *group) without(c *link, old, e *Entry) *link {
	switch {
	case !g.same(c.e, old):
		return &link{c.e, c.run, g.without(c.next, old, e)}
	case c.e != old:
		run := c.run.without(old)
		if e != nil {
			run = run.with(e)
		}
		return &link{c.e, run, c.next}
	case e != nil:
		return &link{e, c.run, c.next}
	case c.run == nil:
		g.cells--
		return c.next
	}
	head := c.run.first()
	return &link{head, c.run.without(head), c.next}
}

// node is one entry of a cell's run: a persistent treap, a search tree by
// before and a heap by weight, so its expected depth is logarithmic in the
// run whatever order entries come and go in, and a mutation copies one path.
// Only instances of one program share a masked key, so runs are where a
// table's entries pile up: every instance's init entry sits in one cell.
type node struct {
	e           *Entry
	left, right *node
}

// weight is the treap's heap key: a hash of the entry's ID.
func weight(e *Entry) uint64 {
	x := uint64(e.ID) * 0x9e3779b97f4a7c15
	return (x ^ x>>29) * 0xbf58476d1ce4e5b9
}

// with returns run n with e added.
func (n *node) with(e *Entry) *node {
	if n == nil {
		return &node{e: e}
	}
	c := *n
	if before(e, n.e) {
		l := n.left.with(e) // fresh, so rotating it up may write it
		if weight(l.e) > weight(c.e) {
			c.left, l.right = l.right, &c
			return l
		}
		c.left = l
	} else {
		r := n.right.with(e)
		if weight(r.e) > weight(c.e) {
			c.right, r.left = r.left, &c
			return r
		}
		c.right = r
	}
	return &c
}

// without returns run n with e, which must be in it, removed.
func (n *node) without(e *Entry) *node {
	if n.e == e {
		return merge(n.left, n.right)
	}
	c := *n
	if before(e, n.e) {
		c.left = n.left.without(e)
	} else {
		c.right = n.right.without(e)
	}
	return &c
}

// merge joins two runs, every entry of a before every entry of b.
func merge(a, b *node) *node {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case weight(a.e) > weight(b.e):
		c := *a
		c.right = merge(a.right, b)
		return &c
	}
	c := *b
	c.left = merge(a, b.left)
	return &c
}

// first returns the run's best entry.
func (n *node) first() *Entry {
	for n.left != nil {
		n = n.left
	}
	return n.e
}

func (n *node) each(fn func(*Entry)) {
	if n != nil {
		n.left.each(fn)
		fn(n.e)
		n.right.each(fn)
	}
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
					c.run.each(fn)
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
	// byID locates installed entries for Update and Reown. It is the
	// writer's own index: never published, read and written under mu.
	byID map[EntryID]*Entry
	// actions is the registered action set, also the writer's own: packets
	// never look an action up (entries carry theirs, bound at Update).
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
		f, ok := layout.Slot(n)
		if !ok {
			return fmt.Errorf("rmt: table %s: key field %q not defined in PHV layout", t.Name, n)
		}
		idx[i] = f.index
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ns := *t.state.Load()
	ns.keyIdx = idx
	t.publish(&ns)
	return nil
}

// SetParsePath gates the table on one parsing path, as the P4 control flow
// that switches on the parse bitmap to pick one filtering table: the table
// applies only to packets whose parse bitmap is path, and every entry must
// match exactly path at key position key, where the key extractor puts the
// bitmap. A packet on another path could match no entry, so the gate changes
// no verdict; it only skips the extraction and the lookup.
func (t *Table) SetParsePath(key int, path pkt.ParseBitmap) error {
	if key < 0 || key >= t.nkeys {
		return fmt.Errorf("rmt: table %s: parse-path key %d out of range [0,%d)", t.Name, key, t.nkeys)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ns := *t.state.Load()
	if ns.count > 0 {
		return fmt.Errorf("rmt: table %s: parse-path gate set with %d entries installed", t.Name, ns.count)
	}
	ns.onPath, ns.pathKey, ns.path = true, key, path
	t.publish(&ns)
	return nil
}

type actionDef struct {
	fn        ActionFunc
	vliwSlots int
}

// NewTable creates a table bound to a stage. keyFunc extracts nkeys 32-bit
// key values from the PHV per lookup; it may be nil when the table declares
// its key containers with SetPHVKeyFields before its first entry.
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
	t.publish(&tableState{})
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
	t.publish(&ns)
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

// grow doubles the owned group g's chains onto fresh pages, moving each cell
// whole (its run included) to the chain its masked key now hashes to. Order
// within a chain does not matter: no two cells share a masked key.
func (t *Table) grow(g *group) {
	old := g.pages
	g.pages = make([]*page, 2*len(old))
	for j := range g.pages {
		g.pages[j] = &page{gen: t.gen}
	}
	g.shift--
	for _, pg := range old {
		for _, c := range pg.chains {
			for ; c != nil; c = c.next {
				ch := t.chain(g, c.e.Keys)
				*ch = &link{c.e, c.run, *ch}
			}
		}
	}
}

// EntrySpec is an entry to install: its match keys, priority, action and
// action parameters.
type EntrySpec struct {
	Keys     []TernaryKey
	Priority int
	Action   string
	Params   []uint32
}

// Insert installs one entry atomically: Update with one insert.
func (t *Table) Insert(keys []TernaryKey, priority int, action string, params []uint32, owner string) (EntryID, error) {
	return t.Update(nil, []EntrySpec{{keys, priority, action, params}}, owner)
}

// Delete removes one entry atomically: Update with one delete.
func (t *Table) Delete(id EntryID) error {
	_, err := t.Update([]EntryID{id}, nil, "")
	return err
}

// Update applies one batch to the table: it deletes the entries del names,
// then installs ins under owner, and publishes the result in one atomic
// store, so a packet sees the table before the batch or after it, never part
// of it. The new entries take consecutive IDs in ins order, from the one
// returned, so equal priorities tie-break as if inserted one by one. Every
// item is checked before the table changes — key count, action, parse-path
// key, room after the deletes, each deleted ID installed and named once —
// and any failure leaves the table as it was.
func (t *Table) Update(del []EntryID, ins []EntrySpec, owner string) (EntryID, error) {
	for range ins {
		if err := fpInsert.Check(); err != nil {
			return 0, fmt.Errorf("rmt: table %s: insert: %w", t.Name, err)
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.state.Load()
	for _, s := range ins {
		if len(s.Keys) != t.nkeys {
			return 0, fmt.Errorf("rmt: table %s: entry has %d keys, want %d", t.Name, len(s.Keys), t.nkeys)
		}
		if _, ok := t.actions[s.Action]; !ok {
			return 0, fmt.Errorf("rmt: table %s: unknown action %q", t.Name, s.Action)
		}
		if cur.onPath && s.Keys[cur.pathKey] != Exact(uint32(cur.path)) {
			return 0, fmt.Errorf("rmt: table %s: entry key %d is %+v, want exactly parse path %s", t.Name, cur.pathKey, s.Keys[cur.pathKey], cur.path)
		}
	}
	if cur.count-len(del)+len(ins) > t.capacity {
		return 0, fmt.Errorf("rmt: table %s: full (%d entries)", t.Name, t.capacity)
	}
	// Take the deleted entries out of byID as they are found, so a repeated
	// ID is not found twice; a missing one puts them back. The constant
	// capacity keeps a small batch's list off the heap.
	gone := make([]*Entry, 0, 8)
	for _, id := range del {
		e, ok := t.byID[id]
		if !ok {
			for _, e := range gone {
				t.byID[e.ID] = e
			}
			return 0, fmt.Errorf("rmt: table %s: entry %d not found", t.Name, id)
		}
		delete(t.byID, id)
		gone = append(gone, e)
	}
	ns := t.edit()
	for _, e := range gone {
		t.unlink(ns, e)
	}
	first := t.nextID + 1
	for _, s := range ins {
		t.nextID++
		e := &Entry{ID: t.nextID, Keys: s.Keys, Priority: s.Priority, Action: s.Action, Params: s.Params, Owner: owner, fn: t.actions[s.Action].fn}
		t.link(ns, e)
		t.byID[e.ID] = e
	}
	t.publish(ns)
	return first, nil
}

// link adds entry e to the mutation in progress.
func (t *Table) link(ns *tableState, e *Entry) {
	i := ns.groupOf(e.Keys)
	if i < 0 {
		i = len(ns.groups)
		ns.groups = append(ns.groups, newGroup(e.Keys, t.gen))
	}
	g := t.ownGroup(ns, i)
	if g.cells >= maxLoad*pageSlots*len(g.pages) {
		t.grow(g)
	}
	ch := t.chain(g, e.Keys)
	*ch = g.with(*ch, e)
	if g.count == 0 || e.Priority > g.maxPrio {
		// The only reorder: a group's bound rose, so it moves forward.
		g.maxPrio = e.Priority
		for ; i > 0 && ns.groups[i-1].maxPrio < e.Priority; i-- {
			ns.groups[i-1], ns.groups[i] = ns.groups[i], ns.groups[i-1]
		}
	}
	g.count++
	ns.count++
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
	*ch = g.without(*ch, e, nil)
}

// Reown transfers every entry installed under oldOwner to newOwner. Owner
// is read lock-free on the packet path (postcards), so entries are replaced
// copy-on-write rather than mutated in place: each moved entry is a fresh
// Entry with the same ID, keys, priority, action, and parameters, seeded
// with the old entry's hit count at the moment of the swap. A switch burst
// tallies hits per entry and adds them when it returns, so the hits a burst
// in flight at the swap tallied for the retiring entry land on it, not on
// the moved one, and are lost to Hits: at most one burst's worth per entry.
// A Reown between bursts loses nothing. Returns the number of entries
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
		g := t.ownGroup(ns, ns.groupOf(e.Keys))
		ch := t.chain(g, e.Keys)
		*ch = g.without(*ch, e, moved)
		t.byID[id] = moved
		n++
	}
	if ns != nil {
		t.publish(ns)
	}
	return n
}

// apply is Apply without the hit count: it returns the matched entry (nil on
// a miss) and whether an action ran, and leaves counting to the caller.
//
// A table that cannot act on the packet costs one snapshot load: with no
// entry and no default action, or gated on another parsing path, it returns
// before key extraction, lookup and postcard work, exactly as a miss with no
// default would end. The check reads the snapshot this packet would search,
// at this table's turn, so an entry published while the packet is between
// stages is seen by the stages it has yet to reach (§4.3's link order relies
// on that).
func (t *Table) apply(p *PHV) (*Entry, bool) {
	st := t.state.Load()
	if st.gate != gateOpen && (st.gate == gateInert || p.Packet == nil || p.Packet.Bitmap != st.path) {
		return nil, false
	}
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
// the one cell whose masked key equals the packet's holds its match, the
// cell's head.
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

// Capacity returns the entry capacity.
func (t *Table) Capacity() int { return t.capacity }

// Free returns the remaining entry capacity.
func (t *Table) Free() int { return t.capacity - t.state.Load().count }

// Hits returns the direct counter of the entry installed under id, or 0
// if none is. The control plane sums a program's counters through the IDs
// it installed, so no reader scans a table for an owner.
func (t *Table) Hits(id EntryID) uint64 {
	t.mu.Lock()
	e := t.byID[id]
	t.mu.Unlock()
	if e == nil {
		return 0
	}
	return e.Hits()
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

// Len returns the installed entry count.
func (t *Table) Len() int { return t.state.Load().count }
