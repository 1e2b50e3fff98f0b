package rmt

import (
	"fmt"
	"math/rand"
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
	hits, misses := tbl.Stats()
	if hits != 1 || misses != 0 {
		t.Errorf("stats = %d/%d", hits, misses)
	}
	if err := tbl.Delete(id); err != nil {
		t.Fatal(err)
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
	// First key not fully masked: goes to the wildcard list but must
	// still obey priorities against bucketed entries.
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

func TestDeleteOwned(t *testing.T) {
	tbl := newTestTable(t, 32)
	for i := 0; i < 6; i++ {
		owner := "a"
		if i%2 == 1 {
			owner = "b"
		}
		if _, err := tbl.Insert([]TernaryKey{Exact(uint32(i)), Wild()}, 0, "set", []uint32{1}, owner); err != nil {
			t.Fatal(err)
		}
	}
	if n := tbl.DeleteOwned("a"); n != 3 {
		t.Errorf("deleted %d, want 3", n)
	}
	if tbl.Len() != 3 {
		t.Errorf("remaining %d", tbl.Len())
	}
	for _, e := range tbl.Entries() {
		if e.Owner != "b" {
			t.Errorf("entry of %q survived", e.Owner)
		}
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
	prio  int
	owner string
	hits  uint64
}

// oracleMatch is the linear reference matcher: highest priority wins, the
// earliest insert wins ties, nil means the default action runs.
func oracleMatch(entries []*oracleEntry, probe []uint32) *oracleEntry {
	var best *oracleEntry
next:
	for _, e := range entries {
		for i, k := range e.keys {
			if probe[i]&k.Mask != k.Value&k.Mask {
				continue next
			}
		}
		if best == nil || e.prio > best.prio {
			best = e
		}
	}
	return best
}

// TestApplyMatchesLinearOracle is the differential check on the one matcher:
// random multi-key ternary rule sets — exact and wildcard first keys mixed,
// repeated priorities, inserts interleaved with Delete, DeleteOwned and Reown
// — probed through Apply on two tables holding the same entries, one reading
// its declared key containers directly and one through the generic keyFunc,
// and compared with oracleMatch: same entry ID (each entry's parameter is
// its ID, so the ID is read off the action that ran), same default on a
// miss, same table and per-entry hit counters.
func TestApplyMatchesLinearOracle(t *testing.T) {
	const missMark = 0xFFFFFFFF
	fields := []string{"k0", "k1", "k2"}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		layout := NewPHVLayout(4096)
		for _, f := range append([]string{"out"}, fields...) {
			if err := layout.Define(f, 32); err != nil {
				t.Fatal(err)
			}
		}
		phv := NewPHV(layout, nil, 0)
		mk := func(name string) *Table {
			tbl := NewTable(name, Ingress, 0, 256, len(fields), func(p *PHV) []uint32 {
				return []uint32{p.Get("k0"), p.Get("k1"), p.Get("k2")}
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
		var hits, misses uint64
		owners := []string{"a", "b", "c"}
		randKey := func(exactOdds int) TernaryKey {
			switch v := uint32(rng.Intn(4)); {
			case rng.Intn(4) < exactOdds:
				return Exact(v)
			case rng.Intn(2) == 0:
				return Wild()
			default:
				return TernaryKey{Value: v, Mask: 0x2}
			}
		}
		remove := func(drop func(*oracleEntry) bool) {
			kept := model[:0]
			for _, e := range model {
				if !drop(e) {
					kept = append(kept, e)
				}
			}
			model = kept
		}
		for step := 0; step < 200; step++ {
			switch op := rng.Intn(10); {
			case op < 6 || len(model) == 0:
				e := &oracleEntry{
					keys: []TernaryKey{randKey(2), randKey(1), randKey(1)},
					prio: rng.Intn(3), owner: owners[rng.Intn(len(owners))],
				}
				for _, tbl := range tables {
					id, err := tbl.Insert(e.keys, e.prio, "set", []uint32{uint32(tbl.nextID + 1)}, e.owner)
					if err != nil {
						t.Fatalf("seed %d step %d: %s insert: %v", seed, step, tbl.Name, err)
					}
					e.id = id
				}
				model = append(model, e)
			case op == 6:
				id := model[rng.Intn(len(model))].id
				for _, tbl := range tables {
					if err := tbl.Delete(id); err != nil {
						t.Fatalf("seed %d step %d: %s delete %d: %v", seed, step, tbl.Name, id, err)
					}
				}
				remove(func(e *oracleEntry) bool { return e.id == id })
			case op == 7:
				owner := owners[rng.Intn(len(owners))]
				want := 0
				for _, e := range model {
					if e.owner == owner {
						want++
					}
				}
				for _, tbl := range tables {
					if n := tbl.DeleteOwned(owner); n != want {
						t.Fatalf("seed %d step %d: %s DeleteOwned(%s) = %d, want %d", seed, step, tbl.Name, owner, n, want)
					}
				}
				remove(func(e *oracleEntry) bool { return e.owner == owner })
			default:
				from, to := owners[rng.Intn(len(owners))], owners[rng.Intn(len(owners))]
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
				vals := []uint32{uint32(rng.Intn(4)), uint32(rng.Intn(4)), uint32(rng.Intn(4))}
				want := uint32(missMark)
				if e := oracleMatch(model, vals); e != nil {
					want = uint32(e.id)
					e.hits++
					hits++
				} else {
					misses++
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
			if h, m := tbl.Stats(); h != hits || m != misses {
				t.Fatalf("seed %d: %s hits=%d misses=%d, oracle %d/%d", seed, tbl.Name, h, m, hits, misses)
			}
			installed := tbl.Entries()
			if len(installed) != len(model) {
				t.Fatalf("seed %d: %s holds %d entries, oracle %d", seed, tbl.Name, len(installed), len(model))
			}
			for i, e := range installed { // both ordered by ID
				if e.ID != model[i].id || e.Owner != model[i].owner || e.Hits() != model[i].hits {
					t.Fatalf("seed %d: %s entry %d owner %s hits %d, oracle entry %d owner %s hits %d",
						seed, tbl.Name, e.ID, e.Owner, e.Hits(), model[i].id, model[i].owner, model[i].hits)
				}
			}
		}
	}
}

func TestInsertByPriorityOrdering(t *testing.T) {
	var list []*Entry
	for i, p := range []int{3, 1, 5, 3, 2, 5} {
		list = insertByPriority(list, &Entry{ID: EntryID(i + 1), Priority: p})
	}
	wantPrio := []int{5, 5, 3, 3, 2, 1}
	for i, e := range list {
		if e.Priority != wantPrio[i] {
			t.Fatalf("position %d priority %d, want %d (%v)", i, e.Priority, wantPrio[i], ids(list))
		}
	}
	// Stability: among equal priorities, earlier IDs first.
	if list[0].ID != 3 || list[1].ID != 6 {
		t.Errorf("unstable ties: %v", ids(list))
	}
	if list[2].ID != 1 || list[3].ID != 4 {
		t.Errorf("unstable ties: %v", ids(list))
	}
}

func ids(list []*Entry) string {
	s := ""
	for _, e := range list {
		s += fmt.Sprintf("%d(p%d) ", e.ID, e.Priority)
	}
	return s
}
