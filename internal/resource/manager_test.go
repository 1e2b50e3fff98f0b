package resource

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func newMgr() *Manager { return NewManager(22, 10, 2048, 65536) }

// at returns one RPB's row of a fresh snapshot.
func at(m *Manager, id RPBID) Utilization { return m.Snapshot()[id-1] }

// revoke locks and frees blocks the way a program revoke does.
func revoke(t *testing.T, m *Manager, blocks []MemBlock) {
	t.Helper()
	m.BeginRevoke(blocks)
	if err := m.FinishRevoke(blocks); err != nil {
		t.Fatal(err)
	}
}

func TestEntriesAccounting(t *testing.T) {
	m := newMgr()
	if at(m, 1).FreeEntries() != 2048 || at(m, 1).EntriesUsed != 0 {
		t.Fatal("fresh manager not empty")
	}
	if err := m.Reserve(1, 100); err != nil {
		t.Fatal(err)
	}
	if err := m.Reserve(5, 50); err != nil {
		t.Fatal(err)
	}
	if at(m, 1).FreeEntries() != 1948 || at(m, 5).FreeEntries() != 1998 {
		t.Errorf("free = %d, %d", at(m, 1).FreeEntries(), at(m, 5).FreeEntries())
	}
	if err := m.Release(5, 51); err == nil {
		t.Error("released more entries than reserved")
	}
	if err := m.Release(1, 100); err != nil {
		t.Fatal(err)
	}
	if at(m, 1).FreeEntries() != 2048 || at(m, 5).FreeEntries() != 1998 {
		t.Error("release did not return exactly the released entries")
	}
	if err := m.Reserve(23, 1); err == nil {
		t.Error("reserved in an RPB out of range")
	}
}

func TestMemoryFirstFit(t *testing.T) {
	m := newMgr()
	a := []MemBlock{{Name: "m", RPB: 3, Size: 1024}}
	b := []MemBlock{{Name: "m", RPB: 3, Size: 512}}
	if err := m.Commit(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(b); err != nil {
		t.Fatal(err)
	}
	if a[0].Start != 0 || b[0].Start != 1024 {
		t.Errorf("starts = %d, %d (first-fit expected)", a[0].Start, b[0].Start)
	}
	if got := at(m, 3).MemFree; got != 65536-1536 {
		t.Errorf("free = %d", got)
	}
}

func TestMemoryCoalescing(t *testing.T) {
	m := newMgr()
	var allocs [][]MemBlock
	for i := 0; i < 4; i++ {
		a := []MemBlock{{Name: "m", RPB: 1, Size: 256}}
		if err := m.Commit(a); err != nil {
			t.Fatal(err)
		}
		allocs = append(allocs, a)
	}
	// Free the middle two; the partitions must coalesce into one 512 run.
	for _, i := range []int{1, 2} {
		revoke(t, m, allocs[i])
	}
	if got := at(m, 1).MaxBlock; got != 65536-1024 {
		// Free space: the tail (65536-1024) and the 512-word hole.
		t.Errorf("MaxBlock = %d", got)
	}
	// A 512 block fits exactly into the coalesced hole (first-fit).
	c := []MemBlock{{Name: "m", RPB: 1, Size: 512}}
	if err := m.Commit(c); err != nil {
		t.Fatal(err)
	}
	if c[0].Start != 256 {
		t.Errorf("hole not reused: start = %d", c[0].Start)
	}
}

func TestPowerOfTwoOnly(t *testing.T) {
	m := newMgr()
	if err := m.Commit([]MemBlock{{Name: "m", RPB: 1, Size: 1000}}); err == nil {
		t.Error("non-power-of-two size accepted")
	}
	if at(m, 1).MemFree != 65536 {
		t.Error("failed commit leaked memory")
	}
}

// TestCommitRollbackOnEntryFailure: a commit whose later block does not fit
// frees the blocks it already carved, and an entry reservation beyond an
// RPB's capacity reserves nothing.
func TestCommitRollbackOnEntryFailure(t *testing.T) {
	m := NewManager(4, 2, 100, 4096)
	big := []MemBlock{{Name: "m1", RPB: 1, Size: 1024}, {Name: "m2", RPB: 2, Size: 8192}}
	if err := m.Commit(big); err == nil {
		t.Fatal("infeasible commit succeeded")
	}
	if err := m.Reserve(2, 50); err != nil {
		t.Fatal(err)
	}
	if err := m.Reserve(2, 51); err == nil {
		t.Fatal("reservation beyond capacity succeeded")
	}
	for rpb := RPBID(1); rpb <= 4; rpb++ {
		want := 100
		if rpb == 2 {
			want = 50
		}
		if u := at(m, rpb); u.MemFree != 4096 || u.FreeEntries() != want {
			t.Errorf("RPB %d not rolled back: mem %d entries %d", rpb, u.MemFree, u.FreeEntries())
		}
	}
}

func TestLockedMemoryUnavailable(t *testing.T) {
	m := NewManager(2, 1, 100, 1024)
	a := []MemBlock{{Name: "m", RPB: 1, Size: 1024}}
	if err := m.Commit(a); err != nil {
		t.Fatal(err)
	}
	m.BeginRevoke(a)
	// Between BeginRevoke and FinishRevoke the memory is locked: a new
	// program must NOT get it.
	b := []MemBlock{{Name: "m", RPB: 1, Size: 1024}}
	if err := m.Commit(b); err == nil {
		t.Fatal("locked memory was reallocated before reset completed")
	}
	if u := at(m, 1); u.MemUsed != 0 || u.MemFree != 0 {
		t.Errorf("locked block counted as used %d / free %d, want neither", u.MemUsed, u.MemFree)
	}
	if err := m.FinishRevoke(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(b); err != nil {
		t.Fatalf("after unlock: %v", err)
	}
}

// TestProgramIDReuse: IDs are handed out in order, and a freed ID is
// reused before a new one, the most recently freed first.
func TestProgramIDReuse(t *testing.T) {
	m := newMgr()
	a, b, c := m.AllocPID(), m.AllocPID(), m.AllocPID()
	if a != 1 || b != 2 || c != 3 {
		t.Fatalf("fresh IDs %d %d %d, want 1 2 3", a, b, c)
	}
	m.FreePID(a)
	m.FreePID(b)
	if got := m.AllocPID(); got != b {
		t.Errorf("got %d, want the most recently freed %d", got, b)
	}
	if got := m.AllocPID(); got != a {
		t.Errorf("got %d, want freed %d", got, a)
	}
	if got := m.AllocPID(); got != 4 {
		t.Errorf("got %d, want the next new ID 4", got)
	}
}

func TestTranslate(t *testing.T) {
	m := newMgr()
	blocks := []MemBlock{{Name: "pad", RPB: 2, Size: 256}, {Name: "m", RPB: 2, Size: 256}}
	if err := m.Commit(blocks); err != nil {
		t.Fatal(err)
	}
	if paddr, err := blocks[1].Translate("p", 10); err != nil || paddr != 256+10 {
		t.Errorf("translate = addr %d, %v", paddr, err)
	}
	if _, err := blocks[1].Translate("p", 256); err == nil || err.Error() != "resource: p/m: virtual address 256 out of [0,256)" {
		t.Errorf("out-of-range vaddr: %v", err)
	}
}

func TestSnapshotAndUtilization(t *testing.T) {
	m := newMgr()
	if err := m.Commit([]MemBlock{{Name: "m", RPB: 4, Size: 1024}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Reserve(4, 512); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if len(snap) != 22 {
		t.Fatalf("snapshot len %d", len(snap))
	}
	u := snap[3]
	if u.RPB != 4 || u.EntriesUsed != 512 || u.MemUsed != 1024 || u.MemCap-u.MemFree != 1024 {
		t.Errorf("RPB4 = %+v", u)
	}
	mem, ent := m.TotalUtilization()
	if mem <= 0 || ent <= 0 || mem > 1 || ent > 1 {
		t.Errorf("utilization = %f, %f", mem, ent)
	}
}

func TestIsIngress(t *testing.T) {
	m := newMgr()
	if !m.IsIngress(10) || m.IsIngress(11) {
		t.Error("ingress boundary wrong")
	}
}

// TestAllocFreeProperty: random commit/revoke sequences never double-
// allocate overlapping memory, and full revocation restores a pristine
// manager.
func TestAllocFreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager(4, 2, 1000, 8192)
		type live struct {
			blocks  []MemBlock
			entries int
		}
		var alive []live
		ranges := map[RPBID][][2]uint32{}
		overlaps := func(r RPBID, start, size uint32) bool {
			for _, iv := range ranges[r] {
				if start < iv[1] && iv[0] < start+size {
					return true
				}
			}
			return false
		}
		free := func(l live) bool {
			m.BeginRevoke(l.blocks)
			blk := l.blocks[0]
			return m.Release(blk.RPB, l.entries) == nil && m.FinishRevoke(l.blocks) == nil
		}
		for op := 0; op < 60; op++ {
			if rng.Intn(3) != 0 || len(alive) == 0 {
				size := uint32(1) << (4 + rng.Intn(6)) // 16..512
				rpb := RPBID(rng.Intn(4) + 1)
				blocks := []MemBlock{{Name: "m", RPB: rpb, Size: size}}
				if err := m.Commit(blocks); err != nil {
					continue
				}
				entries := rng.Intn(50)
				if err := m.Reserve(rpb, entries); err != nil {
					m.BeginRevoke(blocks)
					_ = m.FinishRevoke(blocks)
					continue
				}
				blk := blocks[0]
				if overlaps(blk.RPB, blk.Start, blk.Size) {
					t.Logf("overlap at %+v", blk)
					return false
				}
				ranges[blk.RPB] = append(ranges[blk.RPB], [2]uint32{blk.Start, blk.Start + blk.Size})
				alive = append(alive, live{blocks: blocks, entries: entries})
			} else {
				idx := rng.Intn(len(alive))
				if !free(alive[idx]) {
					return false
				}
				blk := alive[idx].blocks[0]
				ivs := ranges[blk.RPB]
				for i, iv := range ivs {
					if iv[0] == blk.Start {
						ranges[blk.RPB] = append(ivs[:i:i], ivs[i+1:]...)
						break
					}
				}
				alive = append(alive[:idx:idx], alive[idx+1:]...)
			}
		}
		for _, l := range alive {
			if !free(l) {
				return false
			}
		}
		for _, u := range m.Snapshot() {
			if u.MemFree != 8192 || u.MaxBlock != 8192 || u.FreeEntries() != 1000 {
				t.Logf("RPB %d not pristine: %+v", u.RPB, u)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
