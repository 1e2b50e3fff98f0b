package controlplane

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"p4runpro/internal/core"
	"p4runpro/internal/journal"
	"p4runpro/internal/obs/trace"
	"p4runpro/internal/rmt"
)

// recCacheSrc mirrors the paper's Figure 2 cache program (one memory, one
// BRANCH whose cases the incremental-update ops extend).
const recCacheSrc = `
@ mem1 1024
program cache(<hdr.udp.dst_port, 7777, 0xffff>) {
    EXTRACT(hdr.nc.op, har);
    EXTRACT(hdr.nc.key1, sar);
    EXTRACT(hdr.nc.key2, mar);
    BRANCH:
    case(<har, 1, 0xffffffff>, <sar, 0x8888, 0xffffffff>, <mar, 0, 0xffffffff>) {
        RETURN;
        LOADI(mar, 512);
        MEMREAD(mem1);
        MODIFY(hdr.nc.value, sar);
    }
    case(<har, 2, 0xffffffff>, <sar, 0x8888, 0xffffffff>, <mar, 0, 0xffffffff>) {
        DROP;
        LOADI(mar, 512);
        EXTRACT(hdr.nc.val, sar);
        MEMWRITE(mem1);
    };
    FORWARD(32);
}
`

const recCounterSrc = `
@ cnt 256
program counter(<hdr.ipv4.src, 0x0a000000, 0xff000000>) {
    EXTRACT(hdr.ipv4.src, mar);
    AND(mar, 0xff);
    MEMADD(cnt);
    FORWARD(1);
}
`

const recCaseSrc = `
case(<har, 1, 0xffffffff>, <sar, 0x9999, 0xffffffff>, <mar, 0, 0xffffffff>) {
    RETURN;
    LOADI(mar, 700);
    MEMREAD(mem1);
    MODIFY(hdr.nc.value, sar);
}
case(<har, 2, 0xffffffff>, <sar, 0x9999, 0xffffffff>, <mar, 0, 0xffffffff>) {
    DROP;
    LOADI(mar, 700);
    EXTRACT(hdr.nc.val, sar);
    MEMWRITE(mem1);
};
`

// stateDigest is everything the recovery tests compare: linked programs
// (identity, shape, and assigned IDs), their full memory contents, and the
// multicast groups the run touches.
type stateDigest struct {
	Programs []programDigest
	Mcast    map[int][]int
}

type programDigest struct {
	Name      string
	ProgramID uint16
	Depths    int
	Entries   int
	MemWords  uint32
	Memory    map[string][]uint32
}

func digestState(t testing.TB, ct *Controller, mcastGroups []int) stateDigest {
	t.Helper()
	d := stateDigest{Mcast: make(map[int][]int)}
	for _, info := range ct.Programs() {
		pd := programDigest{
			Name: info.Name, ProgramID: info.ProgramID, Depths: info.Depths,
			Entries: info.Entries, MemWords: info.MemWords,
			Memory: make(map[string][]uint32),
		}
		lp, ok := ct.Compiler.Linked(info.Name)
		if !ok {
			t.Fatalf("listed program %q not linked", info.Name)
		}
		for name, b := range lp.Blocks() {
			vals, err := ct.ReadMemoryRange(info.Name, name, 0, b.Size)
			if err != nil {
				t.Fatalf("read %s/%s: %v", info.Name, name, err)
			}
			pd.Memory[name] = vals
		}
		d.Programs = append(d.Programs, pd)
	}
	for _, g := range mcastGroups {
		if ports := ct.SW.MulticastGroup(g); len(ports) > 0 {
			d.Mcast[g] = ports
		}
	}
	return d
}

// journaledOps is the mutation workload the recovery tests share: a mix of
// deploys (including a failing one), memory writes (including a failing
// one), incremental case updates, a revoke, and multicast configuration —
// at least one record of every journal op.
func journaledOps() []journal.Record {
	return []journal.Record{
		{Op: journal.OpDeploy, Source: recCacheSrc},
		{Op: journal.OpMemWrite, Program: "cache", Mem: "mem1", Addr: 512, Value: 99},
		{Op: journal.OpMemWrite, Program: "cache", Mem: "mem1", Addr: 513, Value: 0xabcd},
		{Op: journal.OpAddCases, Program: "cache", BranchDepth: 4, Source: recCaseSrc},
		{Op: journal.OpDeploy, Source: recCounterSrc},
		{Op: journal.OpMcastSet, Group: 7, Ports: []int{1, 2, 5}},
		{Op: journal.OpMemWrite, Program: "counter", Mem: "cnt", Addr: 3, Value: 41},
		// A deploy that fails to parse: journaled, applied (and fails), and
		// must fail identically on every replay.
		{Op: journal.OpDeploy, Source: "program broken("},
		// A memory write that fails translation (no such memory).
		{Op: journal.OpMemWrite, Program: "cache", Mem: "ghost", Addr: 0, Value: 1},
		{Op: journal.OpMemWrite, Program: "cache", Mem: "mem1", Addr: 700, Value: 1234},
		{Op: journal.OpRemoveCase, Program: "cache", BranchID: 3},
		{Op: journal.OpRevoke, Name: "counter"},
		{Op: journal.OpMcastSet, Group: 7, Ports: []int{4}},
	}
}

var recMcastGroups = []int{7}

// runJournaled applies ops to a journaled controller in dir, returning the
// digest after each op (digests[0] is the empty controller) and how many
// ops failed (failures must still replay deterministically).
func runJournaled(t testing.TB, dir string, ops []journal.Record) []stateDigest {
	t.Helper()
	ct, err := Recover(dir, rmt.DefaultConfig(), core.DefaultOptions(), journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		t.Fatalf("Recover(fresh): %v", err)
	}
	digests := []stateDigest{digestState(t, ct, recMcastGroups)}
	for _, op := range ops {
		_ = ct.applyRecord(op) // failures are part of the workload
		digests = append(digests, digestState(t, ct, recMcastGroups))
	}
	if err := ct.Journal().Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}
	return digests
}

// TestRecoveryAtEveryTruncationOffset is the crash-recovery property test:
// for EVERY byte offset of the write-ahead log, recovering from the log
// truncated at that offset yields a controller whose state equals the state
// after some prefix of the applied operations — exactly the prefix of
// complete records surviving the cut. (Same style as the trace-file
// truncation test in internal/traffic/replay_test.go.)
func TestRecoveryAtEveryTruncationOffset(t *testing.T) {
	base := t.TempDir()
	ops := journaledOps()
	digests := runJournaled(t, filepath.Join(base, "primary"), ops)

	wal, err := os.ReadFile(filepath.Join(base, "primary", "wal-00000001.log"))
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}

	// recordEnds[k] = byte offset after the k-th complete record.
	recordEnds := []int{0}
	for off := 0; off < len(wal); {
		_, n, err := journal.DecodeFrame(wal[off:])
		if err != nil {
			t.Fatalf("segment invalid at %d: %v", off, err)
		}
		off += n
		recordEnds = append(recordEnds, off)
	}
	if len(recordEnds) != len(ops)+1 {
		t.Fatalf("segment holds %d records, want %d", len(recordEnds)-1, len(ops))
	}

	step := 1
	if testing.Short() {
		step = 37 // prime stride still lands on torn offsets of every record
	}
	for cut := 0; cut <= len(wal); cut += step {
		// The prefix of complete records surviving a cut at this offset.
		k := 0
		for k+1 < len(recordEnds) && recordEnds[k+1] <= cut {
			k++
		}
		dir := filepath.Join(base, fmt.Sprintf("cut-%05d", cut))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal-00000001.log"), wal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		ct, err := Recover(dir, rmt.DefaultConfig(), core.DefaultOptions(), journal.Options{Sync: journal.SyncNone})
		if err != nil {
			t.Fatalf("cut %d: Recover: %v", cut, err)
		}
		got := digestState(t, ct, recMcastGroups)
		if !reflect.DeepEqual(got, digests[k]) {
			t.Fatalf("cut %d (prefix %d ops): recovered state diverged\ngot:  %+v\nwant: %+v",
				cut, k, got, digests[k])
		}
		ct.Journal().Close()
		os.RemoveAll(dir) // keep the temp tree small across ~2k offsets
	}
}

// TestRecoveryAfterSnapshotCompaction: a snapshot plus post-snapshot tail
// replays to the same state as the uncompacted history.
func TestRecoveryAfterSnapshotCompaction(t *testing.T) {
	base := t.TempDir()
	primary := filepath.Join(base, "primary")
	ops := journaledOps()
	ct, err := Recover(primary, rmt.DefaultConfig(), core.DefaultOptions(), journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	// Apply most ops, snapshot, then apply the tail so recovery exercises
	// snapshot-load plus segment replay.
	cutAt := len(ops) - 3
	for _, op := range ops[:cutAt] {
		_ = ct.applyRecord(op)
	}
	if err := ct.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	for _, op := range ops[cutAt:] {
		_ = ct.applyRecord(op)
	}
	want := digestState(t, ct, recMcastGroups)
	if err := ct.Journal().Close(); err != nil {
		t.Fatal(err)
	}
	// The pre-snapshot segment must be gone (compaction).
	if _, err := os.Stat(filepath.Join(primary, "wal-00000001.log")); !os.IsNotExist(err) {
		t.Fatalf("segment 1 survived compaction: %v", err)
	}

	ct2, err := Recover(primary, rmt.DefaultConfig(), core.DefaultOptions(), journal.Options{Sync: journal.SyncNone})
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer ct2.Journal().Close()
	got := digestState(t, ct2, recMcastGroups)
	// Program IDs may legitimately differ after compaction (revoked programs
	// vanish from the snapshot, shifting PID assignment), so compare
	// everything else.
	for i := range got.Programs {
		got.Programs[i].ProgramID = 0
	}
	for i := range want.Programs {
		want.Programs[i].ProgramID = 0
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-compaction recovery diverged\ngot:  %+v\nwant: %+v", got, want)
	}

	// And the recovered controller keeps journaling: one more op survives
	// another recovery.
	if err := ct2.WriteMemory("cache", "mem1", 900, 7); err != nil {
		t.Fatal(err)
	}
	ct2.Journal().Close()
	ct3, err := Recover(primary, rmt.DefaultConfig(), core.DefaultOptions(), journal.Options{Sync: journal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer ct3.Journal().Close()
	if v, err := ct3.ReadMemory("cache", "mem1", 900); err != nil || v != 7 {
		t.Fatalf("post-recovery write lost: v=%d err=%v", v, err)
	}
}

// TestJournalDisabledPathUnchanged: without a journal every mutating op
// takes the direct path and never touches disk — each verb works with no
// journal bookkeeping behind it and, traced, shows an apply child but
// neither a lock.wait nor a journal.commit: the unjournaled path takes no
// lock and appends nothing.
func TestJournalDisabledPathUnchanged(t *testing.T) {
	ct := newController(t)
	if ct.Journal() != nil {
		t.Fatal("fresh controller has a journal")
	}
	if err := ct.Snapshot(); err != ErrNoJournal {
		t.Fatalf("Snapshot without journal: %v, want ErrNoJournal", err)
	}
	if _, err := ct.Deploy(recCacheSrc); err != nil {
		t.Fatal(err)
	}
	if err := ct.SetMulticastGroup(1, []int{2}); err != nil {
		t.Fatalf("unjournaled SetMulticastGroup: %v", err)
	}
	for jop, row := range replayRows {
		t.Run(jop.String(), func(t *testing.T) {
			ct := newController(t)
			for i, step := range row.setup {
				if err := step(ct); err != nil {
					t.Fatalf("setup step %d: %v", i, err)
				}
			}
			tr := trace.New(trace.Options{})
			tr.SetEnabled(true)
			ct.SetTracing(tr, nil)
			if err := row.live(ct); err != nil {
				t.Fatalf("live verb: %v", err)
			}
			names := spanNames(t, tr)
			if names["ct."+jop.String()] != 1 || names["apply"] != 1 {
				t.Errorf("spans = %v, want one ct.%s root with one apply child", names, jop)
			}
			if names["lock.wait"] != 0 || names["journal.commit"] != 0 {
				t.Errorf("unjournaled %s took the journal path: spans = %v", jop, names)
			}
		})
	}
}
