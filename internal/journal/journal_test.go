package journal

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"p4runpro/internal/faults"
	"p4runpro/internal/obs"
)

func sampleRecords() []Record {
	return []Record{
		{Op: OpDeploy, Source: "program cache { ... }"},
		{Op: OpMemWrite, Program: "cache", Mem: "vals", Addr: 7, Value: 0xdeadbeef},
		{Op: OpMcastSet, Group: 3, Ports: []int{1, 2, 5}},
		{Op: OpAddCases, Program: "cache", BranchDepth: 2, Source: "case(<sar,9,255>) { drop() }"},
		{Op: OpRemoveCase, Program: "cache", BranchID: 4},
		{Op: OpRevoke, Name: "cache"},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for i, rec := range sampleRecords() {
		frame, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("record %d: encode: %v", i, err)
		}
		got, n, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if n != len(frame) {
			t.Fatalf("record %d: consumed %d of %d bytes", i, n, len(frame))
		}
		if !reflect.DeepEqual(got, rec) {
			t.Fatalf("record %d: round trip %+v != %+v", i, got, rec)
		}
	}
}

func TestDecodeFrameRejectsDamage(t *testing.T) {
	frame, err := EncodeRecord(Record{Op: OpRevoke, Name: "x"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeFrame(nil); err != io.EOF {
		t.Fatalf("empty input: err = %v, want io.EOF", err)
	}
	// Every strict prefix is torn (or, once the header is complete but the
	// payload is cut, still torn).
	for n := 1; n < len(frame); n++ {
		if _, _, err := DecodeFrame(frame[:n]); !errors.Is(err, ErrTorn) {
			t.Fatalf("prefix %d: err = %v, want ErrTorn", n, err)
		}
	}
	// A flipped payload bit is corrupt, not torn.
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0x01
	if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("flipped bit: err = %v, want ErrCorrupt", err)
	}
	// An absurd length field is corrupt.
	bad = append([]byte(nil), frame...)
	bad[3] = 0xff
	if _, _, err := DecodeFrame(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad length: err = %v, want ErrCorrupt", err)
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, replay, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != 0 {
		t.Fatalf("fresh dir replayed %d records", len(replay))
	}
	want := sampleRecords()
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, replay, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !reflect.DeepEqual(replay, want) {
		t.Fatalf("replay = %+v, want %+v", replay, want)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	want := sampleRecords()
	for _, rec := range want {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	// Tear the tail: cut the segment mid-record.
	path := filepath.Join(dir, segName(1))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	j2, replay, err := Open(dir, Options{Sync: SyncAlways, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replay, want[:len(want)-1]) {
		t.Fatalf("after torn tail, replay = %d records, want %d", len(replay), len(want)-1)
	}
	// The file itself was truncated, and appends continue cleanly.
	if err := j2.Append(want[len(want)-1]); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, replay, err = Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replay, want) {
		t.Fatalf("post-repair replay = %d records, want %d", len(replay), len(want))
	}
	// The registry is get-or-create, so fetching the counter by name returns
	// the instance the journal incremented.
	if got := reg.Counter("p4runpro_journal_torn_truncations_total", "").Value(); got != 1 {
		t.Fatalf("truncations counter = %d, want 1", got)
	}
}

func TestCompactionReplaysFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sampleRecords() {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Controller-supplied snapshot: pretend the net state is one program
	// plus one memory word.
	snap := []Record{
		{Op: OpDeploy, Source: "program hh { ... }"},
		{Op: OpMemWrite, Program: "hh", Mem: "cnt", Addr: 0, Value: 11},
	}
	if err := j.Compact(snap); err != nil {
		t.Fatal(err)
	}
	// Post-compaction appends land in the new segment.
	after := Record{Op: OpMcastSet, Group: 1, Ports: []int{9}}
	if err := j.Append(after); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// The superseded segment is gone; snapshot + new segment remain.
	if _, err := os.Stat(filepath.Join(dir, segName(1))); !os.IsNotExist(err) {
		t.Fatalf("segment 1 survived compaction: %v", err)
	}
	_, replay, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]Record(nil), snap...), after)
	if !reflect.DeepEqual(replay, want) {
		t.Fatalf("replay = %+v, want %+v", replay, want)
	}
}

func TestSyncIntervalFlushesOnCloseAndTick(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Sync: SyncInterval, SyncInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	rec := Record{Op: OpRevoke, Name: "tick"}
	if err := j.Append(rec); err != nil {
		t.Fatal(err)
	}
	// The background tick flushes without Close. The segment is
	// preallocated, so its size says nothing: wait for the record itself.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if b, err := os.ReadFile(filepath.Join(dir, segName(1))); err == nil {
			if got, _, err := DecodeFrame(b); err == nil && reflect.DeepEqual(got, rec) {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("interval sync never flushed the segment")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// And an orderly Close drains the remaining tail.
	if err := j.Append(Record{Op: OpRevoke, Name: "tail"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, replay, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(replay) != 2 || replay[1].Name != "tail" {
		t.Fatalf("replay = %+v, want both records", replay)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	j, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Append(Record{Op: OpRevoke, Name: "x"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: err = %v, want ErrClosed", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestCorruptMiddleSegmentIsAnError(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range sampleRecords()[:3] {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	// Fabricate a newer segment so segment 1 is no longer the tail, then
	// corrupt segment 1.
	frame, _ := EncodeRecord(Record{Op: OpRevoke, Name: "y"})
	if err := os.WriteFile(filepath.Join(dir, segName(2)), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	p1 := filepath.Join(dir, segName(1))
	b, _ := os.ReadFile(p1)
	b[len(b)/2] ^= 0xff
	if err := os.WriteFile(p1, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt middle segment accepted")
	}
}

// TestWritersGroupBehindASync parks the first Wait's sync at its fsync:
// Write still returns at once, the writes behind the parked round form the
// next group, and each Wait returns only after the sync that covers it.
func TestWritersGroupBehindASync(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	j, _, err := Open(dir, Options{Sync: SyncAlways, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	sp, _ := faults.Lookup("journal.sync")
	defer faults.DisarmAll()
	release := sp.Hold()
	defer release(false)

	recs := sampleRecords()
	waited := make(chan error, 3)
	wait := func(c *Commit) {
		if !c.WaitsForSync() {
			t.Fatal("a SyncAlways commit does not wait for a sync")
		}
		go func() { waited <- c.Wait() }()
	}
	c1, err := j.Write(recs[:1])
	if err != nil {
		t.Fatal(err)
	}
	wait(c1)
	for sp.Hits() < 1 {
		time.Sleep(time.Millisecond)
	}
	for _, r := range [][]Record{recs[1:2], recs[2:]} {
		c, err := j.Write(r)
		if err != nil {
			t.Fatal(err)
		}
		wait(c)
	}
	select {
	case err := <-waited:
		t.Fatalf("Wait returned while the sync was parked: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	release(false)
	for range 3 {
		if err := <-waited; err != nil {
			t.Fatal(err)
		}
	}
	groups := reg.Counter("p4runpro_journal_group_commits_total", "")
	sizes := reg.Histogram("p4runpro_journal_group_size", "")
	if groups.Value() != 2 || sizes.Sum() != uint64(len(recs)) {
		t.Fatalf("group commits = %d covering %d records, want 2 covering %d", groups.Value(), sizes.Sum(), len(recs))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, replay, err := Open(dir, Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replay, recs) {
		t.Fatalf("replay = %+v, want %+v", replay, recs)
	}
}

func TestFaultPointsFireOnAppendAndSync(t *testing.T) {
	j, _, err := Open(t.TempDir(), Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	defer faults.DisarmAll()

	ap, _ := faults.Lookup("journal.append")
	ap.FailNth(1, nil)
	if err := j.Append(Record{Op: OpRevoke, Name: "x"}); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("append fault: err = %v, want ErrInjected", err)
	}
	ap.Disarm()

	// After an append failure the journal still works.
	if err := j.Append(Record{Op: OpRevoke, Name: "x"}); err != nil {
		t.Fatal(err)
	}

	sp, _ := faults.Lookup("journal.sync")
	sp.FailNth(1, nil)
	if err := j.Append(Record{Op: OpRevoke, Name: "x"}); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("sync fault: err = %v, want ErrInjected", err)
	}
	sp.Disarm()
	// A failed sync is final: later appends, compactions and Close report
	// it, and nothing more is written.
	if err := j.Append(Record{Op: OpRevoke, Name: "y"}); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("append after a failed sync: err = %v, want the sync's error", err)
	}
	if err := j.Compact(nil); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("compact after a failed sync: err = %v, want the sync's error", err)
	}
	if err := j.Close(); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("close after a failed sync: err = %v, want the sync's error", err)
	}
	// Reopening rereads the disk: the record whose sync failed was flushed
	// before the fsync, the refused one never was.
	j2, replay, err := Open(j.Dir(), Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(replay) != 2 || replay[1].Name != "x" {
		t.Fatalf("replay after reopen = %+v, want the two x revokes", replay)
	}
	if err := j2.Append(Record{Op: OpRevoke, Name: "z"}); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
}

// crashCopy copies the journal directory as a crash would leave it: the
// files exactly as the open journal has written them, without its Close.
func crashCopy(t *testing.T, dir string) string {
	t.Helper()
	crash := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(crash, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return crash
}

// segmentSize is the length of a journal file on disk, preallocation
// included.
func segmentSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// TestRecoveryPreallocatedCrashMidSegment crashes a journal whose active
// segment is its records followed by preallocated zeros. Reopening replays
// exactly the records, counts no torn tail, preallocates the segment again
// and takes further appends; an orderly Close then leaves only records.
func TestRecoveryPreallocatedCrashMidSegment(t *testing.T) {
	dir := t.TempDir()
	j, _, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	want := sampleRecords()
	for _, rec := range want[:4] {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	valid := j.SegmentBytes()
	crash := crashCopy(t, dir)
	path := filepath.Join(crash, segName(1))
	if runtime.GOOS != "linux" {
		t.Skip("segments are preallocated on linux only")
	}
	if size := segmentSize(t, path); size <= valid {
		t.Fatalf("segment is %d bytes for %d bytes of records, want it preallocated", size, valid)
	}

	reg := obs.NewRegistry()
	j2, replay, err := Open(crash, Options{Sync: SyncAlways, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replay, want[:4]) {
		t.Fatalf("replay = %+v, want %+v", replay, want[:4])
	}
	if got := reg.Counter("p4runpro_journal_torn_truncations_total", "").Value(); got != 0 {
		t.Fatalf("a zero tail counted as %d torn truncation(s)", got)
	}
	if got := j2.SegmentBytes(); got != valid {
		t.Fatalf("SegmentBytes = %d after reopen, want the %d bytes of records", got, valid)
	}
	if size := segmentSize(t, path); size <= valid {
		t.Fatalf("reopened segment is %d bytes, want it preallocated past its %d bytes of records", size, valid)
	}
	for _, rec := range want[4:] {
		if err := j2.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	end := j2.SegmentBytes()
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if size := segmentSize(t, path); size != end {
		t.Fatalf("closed segment is %d bytes, want its %d bytes of records", size, end)
	}
	j3, replay, err := Open(crash, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if !reflect.DeepEqual(replay, want) {
		t.Fatalf("replay after appends = %+v, want %+v", replay, want)
	}
}

// TestRecoveryPreallocatedStaleFrameAfterGap: a crash can leave a frame
// beyond a zero gap, written but never synced. Reopening stops at the gap,
// and the frame must not come back when a later append fills the gap
// exactly and the journal crashes again.
func TestRecoveryPreallocatedStaleFrameAfterGap(t *testing.T) {
	dir := t.TempDir()
	recs := sampleRecords()
	var seg []byte
	for _, rec := range recs[:2] {
		frame, err := EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		seg = append(seg, frame...)
	}
	next := Record{Op: OpRevoke, Name: "next"}
	nextFrame, err := EncodeRecord(next)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := EncodeRecord(Record{Op: OpRevoke, Name: "stale"})
	if err != nil {
		t.Fatal(err)
	}
	seg = append(seg, make([]byte, len(nextFrame))...)
	seg = append(seg, stale...)
	seg = append(seg, make([]byte, 4096)...)
	if err := os.WriteFile(filepath.Join(dir, segName(1)), seg, 0o644); err != nil {
		t.Fatal(err)
	}

	j, replay, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !reflect.DeepEqual(replay, recs[:2]) {
		t.Fatalf("replay = %+v, want the two records before the gap", replay)
	}
	if err := j.Append(next); err != nil {
		t.Fatal(err)
	}
	_, replay, err = Open(crashCopy(t, dir), Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if want := append(recs[:2:2], next); !reflect.DeepEqual(replay, want) {
		t.Fatalf("replay after the second crash = %+v, want %+v", replay, want)
	}
}

// TestRecoveryPreallocatedGapInOlderSegment: only the active segment may
// end in a gap with data after it. A segment that a later one follows may
// end in zeros, but data after them is corruption in the middle of the
// history.
func TestRecoveryPreallocatedGapInOlderSegment(t *testing.T) {
	first, err := EncodeRecord(Record{Op: OpRevoke, Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	second, err := EncodeRecord(Record{Op: OpRevoke, Name: "b"})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tail []byte
		ok   bool
	}{
		{"zero-tail", make([]byte, 100), true},
		{"data-after-gap", append(make([]byte, 100), second...), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segName(1)), append(first, tc.tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, segName(2)), second, 0o644); err != nil {
				t.Fatal(err)
			}
			j, replay, err := Open(dir, Options{Sync: SyncNone})
			if !tc.ok {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Open = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if len(replay) != 2 || replay[0].Name != "a" || replay[1].Name != "b" {
				t.Fatalf("replay = %+v, want a then b", replay)
			}
		})
	}
}
