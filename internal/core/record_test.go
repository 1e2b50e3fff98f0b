package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"p4runpro/internal/programs"
	"p4runpro/internal/resource"
)

// TestConcurrentLinkOneWinner: goroutines linking one source at once get
// exactly one success, and once the winner is revoked the switch's
// resources equal a fresh compiler's: the losers reserved nothing that
// stayed.
func TestConcurrentLinkOneWinner(t *testing.T) {
	_, c := newStack(t)
	_, fresh := newStack(t)
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.Link(context.Background(), cacheSrc)
		}()
	}
	wg.Wait()
	wins := 0
	for _, err := range errs {
		if err == nil {
			wins++
		}
	}
	if wins != 1 {
		t.Fatalf("%d of %d concurrent links of one name succeeded, want 1: %v", wins, n, errs)
	}
	if got := c.Programs(); len(got) != 1 || got[0] != "cache" {
		t.Fatalf("linked %v, want [cache]", got)
	}
	if _, err := c.Revoke("cache"); err != nil {
		t.Fatal(err)
	}
	if got, want := c.Mgr.Snapshot(), fresh.Mgr.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("after revoke:\n%+v\nfresh:\n%+v", got, want)
	}
}

// TestReservedEqualsInstalled: for each Table 1 program linked alone, every
// RPB's reserved entries equal the RPB-table entries installed in it, and
// stay equal as a case is added and removed at runtime and after revoke.
func TestReservedEqualsInstalled(t *testing.T) {
	check := func(t *testing.T, c *Compiler, base []int, when string) {
		t.Helper()
		for _, u := range c.Mgr.Snapshot() {
			tbl, err := c.Plane.RPBTable(u.RPB)
			if err != nil {
				t.Fatal(err)
			}
			if installed := tbl.Len() - base[u.RPB-1]; u.EntriesUsed != installed {
				t.Errorf("%s: RPB %d reserves %d entries, holds %d", when, u.RPB, u.EntriesUsed, installed)
			}
		}
	}
	for _, spec := range programs.All() {
		t.Run(spec.Name, func(t *testing.T) {
			_, c := newStack(t)
			base := make([]int, c.Plane.M)
			for i := range base {
				tbl, _ := c.Plane.RPBTable(resource.RPBID(i + 1))
				base[i] = tbl.Len()
			}
			if _, err := c.Link(context.Background(), spec.DefaultSource()); err != nil {
				t.Fatal(err)
			}
			check(t, c, base, "linked")
			if spec.Name == "cache" {
				added, err := c.AddCases("cache", 4, addKeyCases(0x9999, 700))
				if err != nil {
					t.Fatal(err)
				}
				check(t, c, base, "cases added")
				if err := c.RemoveCase("cache", added[0].BranchID); err != nil {
					t.Fatal(err)
				}
				check(t, c, base, "case removed")
			}
			if _, err := c.Revoke(spec.Name); err != nil {
				t.Fatal(err)
			}
			check(t, c, base, "revoked")
		})
	}
}
