package rmt

import (
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"testing/quick"
)

func newTestTable(t *testing.T, capacity int) *Table {
	t.Helper()
	tbl := NewTable("t", Ingress, 1, capacity, 2, func(p *PHV) []uint32 {
		return []uint32{p.Get("k0"), p.Get("k1")}
	})
	if err := tbl.RegisterAction("set", 1, func(p *PHV, params []uint32) {
		p.Set("out", params[0])
	}); err != nil {
		t.Fatal(err)
	}
	return tbl
}

func newTestPHV(t *testing.T) *PHV {
	t.Helper()
	layout := NewPHVLayout(4096)
	for _, f := range []string{"k0", "k1", "out"} {
		if err := layout.Define(f, 32); err != nil {
			t.Fatal(err)
		}
	}
	return NewPHV(layout, nil, 0)
}

func TestTernaryKeyMatching(t *testing.T) {
	cases := []struct {
		key  TernaryKey
		v    uint32
		want bool
	}{
		{Exact(5), 5, true},
		{Exact(5), 6, false},
		{Wild(), 12345, true},
		{TernaryKey{Value: 0x0A000000, Mask: 0xFF000000}, 0x0A123456, true},
		{TernaryKey{Value: 0x0A000000, Mask: 0xFF000000}, 0x0B123456, false},
		{TernaryKey{Value: 0xFFFF, Mask: 0x00FF}, 0x12FF, true}, // masked value comparison
	}
	for i, c := range cases {
		if got := c.key.Matches(c.v); got != c.want {
			t.Errorf("case %d: Matches(%x) = %v", i, c.v, got)
		}
	}
}

func TestTableInsertLookupDelete(t *testing.T) {
	tbl := newTestTable(t, 16)
	id, err := tbl.Insert([]TernaryKey{Exact(1), Wild()}, 0, "set", []uint32{42}, "p1")
	if err != nil {
		t.Fatal(err)
	}
	phv := newTestPHV(t)
	phv.Set("k0", 1)
	phv.Set("k1", 99)
	if !tbl.Apply(phv) {
		t.Fatal("no entry applied")
	}
	if phv.Get("out") != 42 {
		t.Errorf("out = %d", phv.Get("out"))
	}
	if es := tbl.Entries(); len(es) != 1 || es[0].Hits() != 1 || tbl.Hits(id) != 1 {
		t.Errorf("%d entries, entry %d hits %d, want one entry with 1 hit", len(es), id, tbl.Hits(id))
	}
	if err := tbl.Delete(id); err != nil {
		t.Fatal(err)
	}
	if h := tbl.Hits(id); h != 0 {
		t.Errorf("deleted entry %d reads %d hits, want 0", id, h)
	}
	phv.Set("out", 0)
	if tbl.Apply(phv) {
		t.Error("deleted entry still applied")
	}
	if err := tbl.Delete(id); err == nil {
		t.Error("double delete accepted")
	}
}

func TestTablePriorityOrder(t *testing.T) {
	tbl := newTestTable(t, 16)
	// Overlapping ternary entries: higher priority wins regardless of
	// insertion order.
	if _, err := tbl.Insert([]TernaryKey{Exact(1), Wild()}, 1, "set", []uint32{100}, "low"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert([]TernaryKey{Exact(1), Exact(7)}, 5, "set", []uint32{200}, "high"); err != nil {
		t.Fatal(err)
	}
	phv := newTestPHV(t)
	phv.Set("k0", 1)
	phv.Set("k1", 7)
	tbl.Apply(phv)
	if phv.Get("out") != 200 {
		t.Errorf("high-priority entry lost: out = %d", phv.Get("out"))
	}
	phv.Set("k1", 8) // only the low-priority wildcard matches
	tbl.Apply(phv)
	if phv.Get("out") != 100 {
		t.Errorf("fallback entry lost: out = %d", phv.Get("out"))
	}
}

func TestTableStableTieBreak(t *testing.T) {
	tbl := newTestTable(t, 16)
	if _, err := tbl.Insert([]TernaryKey{Exact(1), Wild()}, 3, "set", []uint32{1}, "first"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert([]TernaryKey{Exact(1), Wild()}, 3, "set", []uint32{2}, "second"); err != nil {
		t.Fatal(err)
	}
	phv := newTestPHV(t)
	phv.Set("k0", 1)
	tbl.Apply(phv)
	if phv.Get("out") != 1 {
		t.Errorf("tie break not stable: out = %d", phv.Get("out"))
	}
}

func TestWildcardFirstKey(t *testing.T) {
	tbl := newTestTable(t, 16)
	// First key not fully masked: a different tuple group from the exact
	// entry, but priorities still order the two groups.
	if _, err := tbl.Insert([]TernaryKey{{Value: 0, Mask: 0}, Exact(5)}, 9, "set", []uint32{300}, "wild"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert([]TernaryKey{Exact(2), Exact(5)}, 1, "set", []uint32{400}, "exact"); err != nil {
		t.Fatal(err)
	}
	phv := newTestPHV(t)
	phv.Set("k0", 2)
	phv.Set("k1", 5)
	tbl.Apply(phv)
	if phv.Get("out") != 300 {
		t.Errorf("wildcard priority lost: out = %d", phv.Get("out"))
	}
}

func TestTableCapacityAndValidation(t *testing.T) {
	tbl := newTestTable(t, 2)
	if _, err := tbl.Insert([]TernaryKey{Exact(1)}, 0, "set", nil, "p"); err == nil {
		t.Error("wrong key count accepted")
	}
	if _, err := tbl.Insert([]TernaryKey{Exact(1), Exact(2)}, 0, "nope", nil, "p"); err == nil {
		t.Error("unknown action accepted")
	}
	for i := 0; i < 2; i++ {
		if _, err := tbl.Insert([]TernaryKey{Exact(uint32(i)), Wild()}, 0, "set", []uint32{1}, "p"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tbl.Insert([]TernaryKey{Exact(9), Wild()}, 0, "set", []uint32{1}, "p"); err == nil {
		t.Error("over-capacity insert accepted")
	}
	if tbl.Free() != 0 || tbl.Len() != 2 || tbl.Capacity() != 2 {
		t.Errorf("accounting: free=%d len=%d cap=%d", tbl.Free(), tbl.Len(), tbl.Capacity())
	}
}

// TestUpdateIsOneStore checks that a valid batch of deletes and inserts is
// one mutation — one gen, one published snapshot whose every copied object
// that gen made — with IDs in item order, and that a batch failing on its
// last item publishes nothing and changes no writer state.
func TestUpdateIsOneStore(t *testing.T) {
	tbl := newTestTable(t, 8)
	spec := func(k uint32, action string) EntrySpec {
		return EntrySpec{Keys: []TernaryKey{Exact(k), Wild()}, Action: action, Params: []uint32{k}}
	}
	var ids []EntryID
	for k := uint32(0); k < 4; k++ {
		id, err := tbl.Insert(spec(k, "set").Keys, 0, "set", []uint32{k}, "a")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	gen, old := tbl.gen, tbl.state.Load()
	first, err := tbl.Update(ids[:2], []EntrySpec{spec(10, "set"), spec(11, "set"), spec(12, "set")}, "b")
	if err != nil {
		t.Fatal(err)
	}
	st := tbl.state.Load()
	if tbl.gen != gen+1 || st == old {
		t.Fatalf("batch advanced gen by %d (snapshot replaced: %v), want one mutation", tbl.gen-gen, st != old)
	}
	for _, g := range st.groups {
		if g.gen > gen && g.gen != gen+1 {
			t.Fatalf("group made by gen %d, want %d", g.gen, gen+1)
		}
		for _, pg := range g.pages {
			if pg.gen > gen && pg.gen != gen+1 {
				t.Fatalf("page made by gen %d, want %d", pg.gen, gen+1)
			}
		}
	}
	if first != 5 || tbl.Len() != 5 {
		t.Fatalf("batch IDs from %d and %d entries, want from 5 and 5", first, tbl.Len())
	}
	for _, k := range []uint32{0, 1} {
		if e := tbl.Lookup([]uint32{k, 0}); e != nil {
			t.Fatalf("deleted key %d still matches entry %d", k, e.ID)
		}
	}
	if e := tbl.Lookup([]uint32{11, 0}); e == nil || e.ID != 6 || e.Owner != "b" {
		t.Fatalf("inserted key 11 matches %+v, want entry 6 of b", e)
	}

	ok := []EntrySpec{spec(20, "set"), spec(21, "set")}
	for _, tc := range []struct {
		name  string
		del   []EntryID
		ins   []EntrySpec
		fault bool // fpInsert fails the last insert
	}{
		{"bad action", ids[2:], append(ok[:2:2], spec(22, "nope")), false},
		{"over capacity", nil, append(ok[:2:2], spec(22, "set"), spec(23, "set")), false},
		{"insert fault", ids[2:], append(ok[:2:2], spec(22, "set")), true},
		{"missing delete", []EntryID{ids[2], 99}, ok, false},
		{"repeated delete", []EntryID{ids[2], ids[2]}, ok, false},
	} {
		if tc.fault {
			fpInsert.FailNth(uint64(len(tc.ins)), nil)
		}
		gen, st, next, n := tbl.gen, tbl.state.Load(), tbl.nextID, len(tbl.byID)
		_, err := tbl.Update(tc.del, tc.ins, "c")
		fpInsert.Disarm()
		if err == nil {
			t.Fatalf("%s: batch accepted", tc.name)
		}
		if tbl.state.Load() != st || tbl.gen != gen || tbl.nextID != next || len(tbl.byID) != n {
			t.Fatalf("%s: failed batch changed the table (%v)", tc.name, err)
		}
	}
	if tbl.Len() != 5 || tbl.Lookup([]uint32{2, 0}) == nil {
		t.Fatalf("after failed batches: %d entries, key 2 matched: %v", tbl.Len(), tbl.Lookup([]uint32{2, 0}) != nil)
	}
}

func TestDefaultAction(t *testing.T) {
	tbl := newTestTable(t, 8)
	if err := tbl.SetDefault("nope"); err == nil {
		t.Error("unknown default accepted")
	}
	if err := tbl.SetDefault("set", 77); err != nil {
		t.Fatal(err)
	}
	phv := newTestPHV(t)
	phv.Set("k0", 123)
	if !tbl.Apply(phv) {
		t.Fatal("default not applied")
	}
	if phv.Get("out") != 77 {
		t.Errorf("out = %d", phv.Get("out"))
	}
}

// TestConcurrentUpdateAtomicity hammers a table with concurrent inserts,
// deletes, and lookups: every lookup must observe either the old or the new
// state, never a torn one (the RMT single-entry atomicity the consistent
// update relies on). Run with -race.
func TestConcurrentUpdateAtomicity(t *testing.T) {
	tbl := newTestTable(t, 1024)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id, err := tbl.Insert([]TernaryKey{Exact(uint32(i % 64)), Wild()}, i%5, "set", []uint32{uint32(i)}, "w")
			if err == nil && i%2 == 0 {
				_ = tbl.Delete(id)
			}
		}
	}()
	go func() {
		defer wg.Done()
		phv := newTestPHV(t)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			phv.Set("k0", uint32(i%64))
			tbl.Apply(phv)
		}
	}()
	for i := 0; i < 1000; i++ {
		tbl.Lookup([]uint32{uint32(i % 64), 0})
	}
	close(stop)
	wg.Wait()
}

// TestLookupMatchesApply: for random entry sets, Lookup returns exactly the
// entry whose action Apply executes.
func TestLookupMatchesApply(t *testing.T) {
	f := func(keys [6]uint32, prios [6]uint8, probe uint32) bool {
		tbl := NewTable("q", Ingress, 0, 64, 1, func(p *PHV) []uint32 {
			return []uint32{p.Get("k0")}
		})
		if err := tbl.RegisterAction("set", 1, func(p *PHV, params []uint32) {
			p.Set("out", params[0])
		}); err != nil {
			return false
		}
		for i, k := range keys {
			mask := ^uint32(0)
			if i%2 == 0 {
				mask = 0xF0
			}
			if _, err := tbl.Insert([]TernaryKey{{Value: k, Mask: mask}}, int(prios[i]), "set", []uint32{uint32(i + 1)}, "o"); err != nil {
				return false
			}
		}
		layout := NewPHVLayout(4096)
		_ = layout.Define("k0", 32)
		_ = layout.Define("out", 32)
		phv := NewPHV(layout, nil, 0)
		phv.Set("k0", probe)
		applied := tbl.Apply(phv)
		e := tbl.Lookup([]uint32{probe})
		if (e != nil) != applied {
			return false
		}
		if e != nil && phv.Get("out") != e.Params[0] {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// oracleEntry is the differential test's model of one installed entry; the
// slice holding them is kept in insertion order.
type oracleEntry struct {
	id    EntryID
	keys  []TernaryKey
	tuple string // the mask vector, as text
	prio  int
	owner string
	hits  uint64
}

func (e *oracleEntry) matches(probe []uint32) bool {
	for i, k := range e.keys {
		if probe[i]&k.Mask != k.Value&k.Mask {
			return false
		}
	}
	return true
}

// oracleMatch is the linear reference matcher: highest priority wins, the
// earliest insert wins ties, nil means the default action runs.
func oracleMatch(entries []*oracleEntry, probe []uint32) *oracleEntry {
	var best *oracleEntry
	for _, e := range entries {
		if e.matches(probe) && (best == nil || e.prio > best.prio) {
			best = e
		}
	}
	return best
}

// oracleShape is one family of rule sets for the differential check.
type oracleShape struct {
	nkeys  int
	owners int // distinct owners, for owner-wide batches and Reown
	fill   int // entries installed before the churn steps
	steps  int
	entry  func(*rand.Rand) ([]TernaryKey, int) // keys and priority
	probe  func(*rand.Rand) []uint32
}

// oracleCoverage counts the cases a tuple-space index can get wrong, which
// random rule sets may or may not produce; the test asserts each occurred.
type oracleCoverage struct {
	tuples    map[string]bool
	crossTies int // probes whose winner tied with a matching entry of another mask vector
	emptied   int // deletes that removed the last entry of a mask vector
	stale     int // deletes that removed a mask vector's sole top-priority entry, leaving its bound stale
}

// runOracle drives one seed of a shape: inserts interleaved with Delete,
// batch deletes of one owner's entries, mixed delete+insert batches and
// Reown, probed through Apply on two tables holding the same
// entries — one reading its declared key containers directly, one through
// the generic keyFunc — and compared with oracleMatch: same entry ID (each
// entry's parameter is its ID, so the ID is read off the action that ran),
// same default on a miss, same table and per-entry hit counters.
func runOracle(t *testing.T, seed int64, sh oracleShape, cov *oracleCoverage) {
	t.Helper()
	const missMark = 0xFFFFFFFF
	rng := rand.New(rand.NewSource(seed))
	fields := make([]string, sh.nkeys)
	layout := NewPHVLayout(4096)
	if err := layout.Define("out", 32); err != nil {
		t.Fatal(err)
	}
	for i := range fields {
		fields[i] = fmt.Sprintf("k%d", i)
		if err := layout.Define(fields[i], 32); err != nil {
			t.Fatal(err)
		}
	}
	phv := NewPHV(layout, nil, 0)
	mk := func(name string) *Table {
		tbl := NewTable(name, Ingress, 0, 4096, sh.nkeys, func(p *PHV) []uint32 {
			k := p.KeyScratch(len(fields))
			for i, f := range fields {
				k[i] = p.Get(f)
			}
			return k
		})
		if err := tbl.RegisterAction("set", 1, func(p *PHV, params []uint32) { p.Set("out", params[0]) }); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SetDefault("set", missMark); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	declared, generic := mk("declared"), mk("generic")
	if err := declared.SetPHVKeyFields(layout, fields...); err != nil {
		t.Fatal(err)
	}
	tables := []*Table{declared, generic}

	var model []*oracleEntry
	owner := func() string { return fmt.Sprintf("o%d", rng.Intn(sh.owners)) }
	remove := func(drop func(*oracleEntry) bool) {
		kept := model[:0]
		for _, e := range model {
			if !drop(e) {
				kept = append(kept, e)
			}
		}
		model = kept
	}
	// batch applies one Update to both tables: del removed, then n fresh
	// entries of one owner, each carrying its ID as its parameter.
	batch := func(step int, del []*oracleEntry, n int) {
		ids := make([]EntryID, len(del))
		for i, e := range del {
			ids[i] = e.id
		}
		owner := owner()
		add := make([]*oracleEntry, n)
		for i := range add {
			keys, prio := sh.entry(rng)
			add[i] = &oracleEntry{keys: keys, tuple: fmt.Sprint(masksOf(keys)), prio: prio, owner: owner}
			cov.tuples[add[i].tuple] = true
		}
		for _, tbl := range tables {
			specs := make([]EntrySpec, n)
			for i, e := range add {
				specs[i] = EntrySpec{Keys: e.keys, Priority: e.prio, Action: "set", Params: []uint32{uint32(tbl.nextID) + 1 + uint32(i)}}
			}
			first, err := tbl.Update(ids, specs, owner)
			if err != nil {
				t.Fatalf("seed %d step %d: %s update: %v", seed, step, tbl.Name, err)
			}
			for i, e := range add {
				e.id = first + EntryID(i)
			}
		}
		gone := make(map[*oracleEntry]bool, len(del))
		for _, e := range del {
			gone[e] = true
		}
		remove(func(e *oracleEntry) bool { return gone[e] })
		model = append(model, add...)
	}
	for i := 0; i < sh.fill; i++ {
		batch(-1, nil, 1)
	}
	for step := 0; step < sh.steps; step++ {
		switch op := rng.Intn(11); {
		case op < 5 || len(model) == 0:
			batch(step, nil, 1)
		case op < 7:
			victim := model[rng.Intn(len(model))]
			top, others := 0, false
			for _, e := range model {
				if e != victim && e.tuple == victim.tuple && (!others || e.prio > top) {
					top, others = e.prio, true
				}
			}
			switch {
			case !others:
				cov.emptied++
			case victim.prio > top:
				cov.stale++
			}
			for _, tbl := range tables {
				if err := tbl.Delete(victim.id); err != nil {
					t.Fatalf("seed %d step %d: %s delete %d: %v", seed, step, tbl.Name, victim.id, err)
				}
			}
			remove(func(e *oracleEntry) bool { return e == victim })
		case op == 7: // every entry of one owner
			owner := owner()
			var del []*oracleEntry
			for _, e := range model {
				if e.owner == owner {
					del = append(del, e)
				}
			}
			batch(step, del, 0)
		case op == 8: // a mixed batch: up to three deletes, then inserts
			var del []*oracleEntry
			for _, i := range rng.Perm(len(model))[:min(len(model), rng.Intn(4))] {
				del = append(del, model[i])
			}
			batch(step, del, 1+rng.Intn(3))
		default:
			from, to := owner(), owner()
			for _, tbl := range tables {
				tbl.Reown(from, to)
			}
			for _, e := range model {
				if e.owner == from {
					e.owner = to
				}
			}
		}
		for probe := 0; probe < 4; probe++ {
			vals := sh.probe(rng)
			want := uint32(missMark)
			if e := oracleMatch(model, vals); e != nil {
				want = uint32(e.id)
				e.hits++
				for _, o := range model {
					if o != e && o.prio == e.prio && o.tuple != e.tuple && o.matches(vals) {
						cov.crossTies++
						break
					}
				}
			}
			for _, tbl := range tables {
				for i, f := range fields {
					phv.Set(f, vals[i])
				}
				phv.Set("out", 0)
				if !tbl.Apply(phv) {
					t.Fatalf("seed %d step %d: %s executed nothing for %v", seed, step, tbl.Name, vals)
				}
				if got := phv.Get("out"); got != want {
					t.Fatalf("seed %d step %d: %s matched entry %d for %v, oracle %d", seed, step, tbl.Name, got, vals, want)
				}
			}
		}
	}
	for _, tbl := range tables {
		installed := tbl.Entries()
		if len(installed) != len(model) || tbl.Len() != len(model) {
			t.Fatalf("seed %d: %s holds %d entries (Len %d), oracle %d", seed, tbl.Name, len(installed), tbl.Len(), len(model))
		}
		for i, e := range installed { // both ordered by ID
			if e.ID != model[i].id || e.Owner != model[i].owner || e.Hits() != model[i].hits || tbl.Hits(e.ID) != model[i].hits {
				t.Fatalf("seed %d: %s entry %d owner %s hits %d (Hits %d), oracle entry %d owner %s hits %d",
					seed, tbl.Name, e.ID, e.Owner, e.Hits(), tbl.Hits(e.ID), model[i].id, model[i].owner, model[i].hits)
			}
		}
	}
}

func masksOf(keys []TernaryKey) []uint32 {
	m := make([]uint32, len(keys))
	for i, k := range keys {
		m[i] = k.Mask
	}
	return m
}

// TestApplyMatchesLinearOracle is the differential check on the one matcher,
// over two shapes. Random three-key rule sets draw each key exact, wildcard or
// one-bit masked, so they span up to 27 mask vectors (all-wildcard included)
// with repeated priorities across them. The init-shaped seed holds 1,200
// filters like an init_<path> table: a shared exact bitmap key, /24 and /16
// source prefixes, /24s narrowed by protocol, repeated /24s and all-wildcard
// filters, each at the compiler's mask-width priority.
func TestApplyMatchesLinearOracle(t *testing.T) {
	cov := &oracleCoverage{tuples: map[string]bool{}}
	randKey := func(rng *rand.Rand, exactOdds int) TernaryKey {
		switch v := uint32(rng.Intn(4)); {
		case rng.Intn(4) < exactOdds:
			return Exact(v)
		case rng.Intn(2) == 0:
			return Wild()
		default:
			return TernaryKey{Value: v, Mask: 0x2}
		}
	}
	random := oracleShape{
		nkeys: 3, owners: 3, steps: 200,
		entry: func(rng *rand.Rand) ([]TernaryKey, int) {
			return []TernaryKey{randKey(rng, 2), randKey(rng, 1), randKey(rng, 1)}, rng.Intn(3)
		},
		probe: func(rng *rand.Rand) []uint32 {
			return []uint32{uint32(rng.Intn(4)), uint32(rng.Intn(4)), uint32(rng.Intn(4))}
		},
	}
	for seed := int64(1); seed <= 20; seed++ {
		runOracle(t, seed, random, cov)
	}

	const prefixes = 1300 // /24 slots; the fill draws from them with repeats
	initShaped := oracleShape{
		nkeys: initShapeKeys, owners: 400, fill: 1200, steps: 300,
		entry: func(rng *rand.Rand) ([]TernaryKey, int) {
			var k []TernaryKey
			switch r := rng.Intn(100); {
			case r < 2:
				k = prefixKeys(0, 0)
				k[initShapeSrc] = Wild()
			case r < 8:
				k = prefixKeys(10<<24|uint32(rng.Intn(6))<<16, 16)
			case r < 14:
				k = prefixKeys(background24(rng.Intn(prefixes)), 24)
				k[4] = Exact(17) // the protocol key
			default:
				k = prefixKeys(background24(rng.Intn(prefixes)), 24)
			}
			prio := 0
			for _, key := range k[1:] {
				prio += bits.OnesCount32(key.Mask)
			}
			return k, prio
		},
		probe: func(rng *rand.Rand) []uint32 {
			v := make([]uint32, initShapeKeys)
			v[0] = initShapeBitmap
			v[initShapeSrc] = background24(rng.Intn(prefixes)) | uint32(rng.Intn(256))
			if rng.Intn(4) == 0 {
				v[initShapeSrc] = 10<<24 | rng.Uint32()&0xffff // 10.0/16
			}
			v[4] = []uint32{6, 17}[rng.Intn(2)]
			return v
		},
	}
	runOracle(t, 1, initShaped, cov)

	t.Logf("%d mask vectors, %d cross-group priority ties, %d group-emptying deletes, %d stale-bound deletes",
		len(cov.tuples), cov.crossTies, cov.emptied, cov.stale)
	if len(cov.tuples) < 4 || !cov.tuples[fmt.Sprint(make([]uint32, 3))] {
		t.Errorf("rule sets spanned %d mask vectors (all-wildcard: %v), want ≥ 4 including it", len(cov.tuples), cov.tuples[fmt.Sprint(make([]uint32, 3))])
	}
	if cov.crossTies == 0 || cov.emptied == 0 || cov.stale == 0 {
		t.Errorf("coverage: %d cross-group priority ties, %d group-emptying deletes, %d stale-bound deletes; want each > 0",
			cov.crossTies, cov.emptied, cov.stale)
	}
}

// TestTupleGroupOrdering pins the index's lookup order on a hand-built case:
// groups are probed in descending max priority, a tie between groups goes to
// the earlier install even when the later group is probed first, a delete
// that leaves a group's bound stale changes no result, and an emptied group
// leaves the index.
func TestTupleGroupOrdering(t *testing.T) {
	tbl := newTestTable(t, 16)
	ins := func(k0, k1 TernaryKey, prio int) EntryID {
		t.Helper()
		id, err := tbl.Insert([]TernaryKey{k0, k1}, prio, "set", []uint32{uint32(prio)}, "o")
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	x := ins(Wild(), Exact(7), 5) // group {0, ff}
	y := ins(Exact(1), Wild(), 2) // group {ff, 0}
	w := ins(Exact(2), Wild(), 8) // raises {ff, 0}'s bound to 8: probed first
	v := ins(Exact(1), Wild(), 5) // ties x, installed later
	all := ins(Wild(), Wild(), 1) // all-wildcard group
	check := func(want EntryID, groups int) {
		t.Helper()
		st := tbl.state.Load()
		for i := 1; i < len(st.groups); i++ {
			if st.groups[i-1].maxPrio < st.groups[i].maxPrio {
				t.Fatalf("group %d bound %d ahead of bound %d", i-1, st.groups[i-1].maxPrio, st.groups[i].maxPrio)
			}
		}
		if len(st.groups) != groups {
			t.Fatalf("%d groups, want %d", len(st.groups), groups)
		}
		var got EntryID // 0: a miss
		if e := tbl.Lookup([]uint32{1, 7}); e != nil {
			got = e.ID
		}
		if got != want {
			t.Fatalf("lookup(1, 7) = entry %d, want %d", got, want)
		}
	}
	check(x, 3)
	if err := tbl.Delete(w); err != nil { // {ff, 0}'s bound stays 8
		t.Fatal(err)
	}
	check(x, 3)
	if err := tbl.Delete(x); err != nil { // empties {0, ff}
		t.Fatal(err)
	}
	check(v, 2)
	if err := tbl.Delete(v); err != nil {
		t.Fatal(err)
	}
	check(y, 2)
	if _, err := tbl.Update([]EntryID{y, all}, nil, ""); err != nil {
		t.Fatal(err)
	}
	check(0, 0)
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				return true
			}
		}
	}
	return false
}

// shapedTable is one of the 2,000-entry tables the garbage and spread
// checks use: keys(i) gives entry i's keys and priority.
type shapedTable struct {
	name string
	tbl  *Table
	keys func(i int) ([]TernaryKey, int)
}

const shapedFill = 2000

// shapedTables fills an init table (one shared exact first key, /24 and /16
// tuples), an RPB table (a distinct exact program ID per entry), and an init
// table whose entries all share one /16 filter, as the resident instances of
// one program do. Each has room for a 64-entry batch beside its fill.
func shapedTables(t *testing.T) []shapedTable {
	t.Helper()
	shapes := []shapedTable{
		{"init", NewTable("init", Ingress, 0, 4096, initShapeKeys, nil), func(i int) ([]TernaryKey, int) {
			if i%10 == 0 {
				return prefixKeys(10<<24|uint32(i/10)<<16, 16), 16
			}
			return prefixKeys(background24(i), 24), 24
		}},
		{"rpb", NewTable("rpb", Ingress, 0, 4096, 6, nil), func(i int) ([]TernaryKey, int) {
			return []TernaryKey{Exact(uint32(i)), Exact(0), Exact(0), Wild(), Wild(), Wild()}, 0
		}},
		{"shared", NewTable("shared", Ingress, 0, 4096, initShapeKeys, nil), func(int) ([]TernaryKey, int) {
			return prefixKeys(10<<24, 16), 16
		}},
	}
	for _, sh := range shapes {
		if err := sh.tbl.RegisterAction("set", 1, func(*PHV, []uint32) {}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < shapedFill; i++ {
			k, prio := sh.keys(i)
			if _, err := sh.tbl.Insert(k, prio, "set", nil, "bg"); err != nil {
				t.Fatal(err)
			}
		}
	}
	return shapes
}

// TestTableMutationGarbage bounds the heap one Insert plus one Delete leaves
// behind on a 2,000-entry table: a mutation copies its group's header, one
// hash page, a chain's cells up to the change and one path of a cell's run,
// never a whole group, a whole run or a table-wide structure. In the shared
// shape the churned entry joins a run of 2,000 entries with its key. The same
// entries installed and deleted as 64-entry batches may leave no more per
// entry: a batch copies each object once, however many of its entries it
// touches.
func TestTableMutationGarbage(t *testing.T) {
	if raceBuild() {
		t.Skip("the race detector's instrumentation allocates")
	}
	const entries, batch, budget = 1024, 64, 4 << 10
	allocated := func(fn func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / entries
	}
	for _, sh := range shapedTables(t) {
		specs := make([]EntrySpec, entries)
		for j := range specs {
			k, prio := sh.keys(shapedFill + j)
			specs[j] = EntrySpec{Keys: k, Priority: prio, Action: "set"}
		}
		single := allocated(func() {
			for _, s := range specs {
				id, err := sh.tbl.Insert(s.Keys, s.Priority, s.Action, nil, "churn")
				if err != nil {
					t.Fatal(err)
				}
				if err := sh.tbl.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
		})
		ids := make([]EntryID, batch)
		batched := allocated(func() {
			for j := 0; j < entries; j += batch {
				first, err := sh.tbl.Update(nil, specs[j:j+batch], "churn")
				if err != nil {
					t.Fatal(err)
				}
				for i := range ids {
					ids[i] = first + EntryID(i)
				}
				if _, err := sh.tbl.Update(ids, nil, ""); err != nil {
					t.Fatal(err)
				}
			}
		})
		t.Logf("%s: %d B per Insert+Delete, %d B per entry in %d-entry batches", sh.name, single, batched, batch)
		if single > budget {
			t.Errorf("%s: one Insert+Delete allocates %d B on a %d-entry table, want ≤ %d", sh.name, single, shapedFill, budget)
		}
		if batched > single {
			t.Errorf("%s: a %d-entry batch allocates %d B per entry, more than one Insert+Delete's %d B", sh.name, batch, batched, single)
		}
	}
}

// TestTupleGroupSpread checks that a group grows with its distinct masked
// keys, and only with them, and that the hash spreads the workloads' key
// patterns over the chains: no chain of a 2,000-entry group is longer than 8.
// The keys are fixed, so this is deterministic: the longest chain is 4 today,
// and a group that never grew would have chains of ~125. The shared shape's
// 2,000 entries are one cell on one page.
func TestTupleGroupSpread(t *testing.T) {
	for _, sh := range shapedTables(t) {
		for _, g := range sh.tbl.state.Load().groups {
			longest := 0
			for _, pg := range g.pages {
				for _, c := range pg.chains {
					n := 0
					for ; c != nil; c = c.next {
						n++
					}
					longest = max(longest, n)
				}
			}
			slots := pageSlots * len(g.pages)
			if g.cells > maxLoad*slots || longest > 8 {
				t.Errorf("%s: group of %d cells over %d chains, longest %d", sh.name, g.cells, slots, longest)
			}
			if len(g.pages) > 1 && g.cells <= maxLoad*slots/2 {
				t.Errorf("%s: group of %d cells grew to %d chains", sh.name, g.cells, slots)
			}
		}
	}
}
