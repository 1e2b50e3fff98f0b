package controlplane

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"time"

	"p4runpro/internal/core"
	"p4runpro/internal/faults"
	"p4runpro/internal/journal"
	"p4runpro/internal/rmt"
)

// waitUntil yields until cond holds.
func waitUntil(cond func() bool) {
	for !cond() {
		runtime.Gosched()
	}
}

func linked(ct *Controller, name string) bool {
	_, ok := ct.Compiler.Linked(name)
	return ok
}

func programNames(ct *Controller) []string {
	names := ct.Compiler.Programs()
	sort.Strings(names)
	return names
}

// TestApplyWhileSyncing parks the journal's fsync and checks what the early
// lock release gives and what it must not: callers apply behind a parked
// sync and share one group commit, nobody hears of success before the fsync
// that covers them, and a crash while the syncs are parked — applied, not
// durable — recovers a record prefix of what was applied.
func TestApplyWhileSyncing(t *testing.T) {
	dir := t.TempDir()
	ct, err := Recover(dir, rmt.DefaultConfig(), core.DefaultOptions(), journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Journal().Close()
	pt, _ := faults.Lookup("journal.sync")
	defer faults.DisarmAll()
	release := pt.Hold()
	defer release(false)

	done := make(chan error, 3)
	offsets := []int64{ct.Journal().SegmentBytes()}
	go func() { _, err := ct.Deploy(recCacheSrc); done <- err }()
	// The deploy linked, released the lock, and its Wait's sync round took
	// its record and parked at the fsync.
	waitUntil(func() bool { return pt.Hits() == 1 && linked(ct, "cache") })
	offsets = append(offsets, ct.Journal().SegmentBytes())
	// The lock was released before the wait, so two more callers apply
	// behind the parked sync.
	go func() { _, err := ct.Deploy(replayCounterSrc); done <- err }()
	waitUntil(func() bool { return linked(ct, "counter") })
	go func() { done <- ct.SetMulticastGroup(context.Background(), 7, []int{1, 2, 5}) }()
	waitUntil(func() bool { return len(ct.SW.MulticastGroup(7)) > 0 })
	select {
	case err := <-done:
		t.Fatalf("an operation returned before its fsync: %v", err)
	default:
	}

	// Crash now, with all three applied and none durable. The parked round
	// flushed the deploy's record to the OS; the two behind it are still in
	// the process's write buffer and die with it. A process crash therefore
	// recovers the deploy alone, and a power loss, which may also drop the
	// unsynced deploy record, recovers nothing: both are applied prefixes.
	// The segment is preallocated, so the records are followed by zeros.
	seg, err := os.ReadFile(filepath.Join(dir, "wal-00000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	valid := 0
	for valid < len(seg) {
		_, n, err := journal.DecodeFrame(seg[valid:])
		if err != nil {
			break
		}
		valid += n
	}
	if int64(valid) != offsets[1] {
		t.Fatalf("segment holds %d bytes of records at the crash, want the parked round's %d", valid, offsets[1])
	}
	if rest := seg[valid:]; bytes.Count(rest, []byte{0}) != len(rest) {
		t.Fatal("segment holds non-zero bytes after its records")
	}
	for k, want := range [][]string{nil, {"cache"}} {
		crash := t.TempDir()
		if err := os.WriteFile(filepath.Join(crash, "wal-00000001.log"), seg[:offsets[k]], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(crash, rmt.DefaultConfig(), core.DefaultOptions(), journal.Options{Sync: journal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		if got := programNames(rec); fmt.Sprint(got) != fmt.Sprint(want) || len(rec.SW.MulticastGroup(7)) > 0 {
			t.Errorf("crash keeping %d records: programs %v, multicast %v; want %v and none",
				k, got, rec.SW.MulticastGroup(7), want)
		}
		rec.Journal().Close()
	}

	release(false)
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatalf("operation %d: %v", i, err)
		}
	}
	// One fsync for the deploy, one shared by the two callers behind it.
	groups := ct.Obs.Counter("p4runpro_journal_group_commits_total", "")
	sizes := ct.Obs.Histogram("p4runpro_journal_group_size", "")
	if groups.Value() != 2 || sizes.Sum() != 3 {
		t.Fatalf("group commits = %d covering %d appends, want 2 covering 3", groups.Value(), sizes.Sum())
	}
}

// TestSyncFailurePoisons fails a parked fsync under an applied deploy while
// a second operation has applied behind it. Both report ErrPoisoned: the
// journal's failure is final, so the group behind the failed one fails too
// instead of being synced on top of records the disk may have dropped.
// Every later mutation is refused, reads still answer, and a restart
// recovers an applied prefix that holds no operation anyone was told
// succeeded.
func TestSyncFailurePoisons(t *testing.T) {
	dir := t.TempDir()
	ct, err := Recover(dir, rmt.DefaultConfig(), core.DefaultOptions(), journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Journal().Close()
	pt, _ := faults.Lookup("journal.sync")
	defer faults.DisarmAll()
	release := pt.Hold()
	defer release(false)

	done := make(chan error, 2)
	go func() { _, err := ct.Deploy(recCacheSrc); done <- err }()
	waitUntil(func() bool { return pt.Hits() == 1 })
	go func() { done <- ct.SetMulticastGroup(context.Background(), 7, []int{1, 2, 5}) }()
	waitUntil(func() bool { return len(ct.SW.MulticastGroup(7)) > 0 })
	release(true)
	for i := 0; i < 2; i++ {
		if err := <-done; !errors.Is(err, ErrPoisoned) || !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("operation %d under a failed sync: err = %v, want ErrPoisoned wrapping the cause", i, err)
		}
	}
	if n := pt.Hits(); n != 1 {
		t.Fatalf("%d fsyncs, want 1: the group behind a failed sync must not be synced", n)
	}
	faults.DisarmAll()
	if err := ct.WriteMemory(context.Background(), "cache", "mem1", 1, 2); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("mutation on a poisoned controller: err = %v, want ErrPoisoned", err)
	}
	if err := ct.Snapshot(); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("snapshot on a poisoned controller: err = %v, want ErrPoisoned", err)
	}
	if _, err := ct.Plan(context.Background(), recCacheSrc); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("plan on a poisoned controller: err = %v, want ErrPoisoned", err)
	}
	if _, err := ct.ReadMemory("cache", "mem1", 1); err != nil {
		t.Fatalf("read on a poisoned controller: %v", err)
	}
	// The deploy's record reached the file before its fsync failed; the
	// multicast record behind it never left the process.
	rec, err := Recover(dir, rmt.DefaultConfig(), core.DefaultOptions(), journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Journal().Close()
	if got, want := digestState(t, rec, nil), digestState(t, ct, nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("restart diverges from the applied programs:\n got %+v\nwant %+v", got, want)
	}
	if got := rec.SW.MulticastGroup(7); len(got) > 0 {
		t.Fatalf("restart holds the multicast group written behind the failed sync: %v", got)
	}
	if err := rec.WriteMemory(context.Background(), "cache", "mem1", 1, 2); err != nil {
		t.Fatalf("mutation after restart: %v", err)
	}
}

// TestOverlapFollowsMeasuredApply checks the rule that hands an
// operation's fsync to the syncer before its apply: an operation kind whose
// applies have lately outlasted the journal's fsyncs starts its sync at
// once, a shorter one leaves it to its Wait.
func TestOverlapFollowsMeasuredApply(t *testing.T) {
	ct, err := Recover(t.TempDir(), rmt.DefaultConfig(), core.DefaultOptions(), journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer ct.Journal().Close()
	if err := ct.SetMulticastGroup(context.Background(), 1, []int{1}); err != nil {
		t.Fatal(err)
	}
	est := ct.Journal().SyncEstimate()
	if est <= 0 {
		t.Fatalf("SyncEstimate = %v after an fsync, want > 0", est)
	}
	pt, _ := faults.Lookup("journal.sync")
	defer faults.DisarmAll()
	release := pt.Hold()
	defer release(false)

	s := ct.jrn
	var commits []*journal.Commit
	for _, apply := range []time.Duration{est / 2, 2 * est} {
		s.mu.Lock()
		s.applyEst[journal.OpMcastSet] = apply
		c, err := s.write([]journal.Record{{Op: journal.OpMcastSet, Group: 2, Ports: []int{1}}})
		if err != nil {
			t.Fatal(err)
		}
		s.startIfHidden(journal.OpMcastSet, c)
		s.mu.Unlock()
		commits = append(commits, c)
		if apply < est {
			time.Sleep(20 * time.Millisecond)
			if n := pt.Hits(); n != 0 {
				t.Fatalf("an apply shorter than an fsync started its sync early (%d fsyncs)", n)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for pt.Hits() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("an apply longer than an fsync did not start its sync")
		}
		time.Sleep(time.Millisecond)
	}
	release(false)
	for _, c := range commits {
		if err := c.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}
