// Chaos tests: arm every registered fault point in turn, run a workload
// through the full stack (journaled control plane behind a wire server),
// and assert the durability invariants hold — a clean error surfaces, no
// partially-linked program is ever visible, every RPB resource is released
// on failure, the operation succeeds once the fault clears, and recovery
// from the write-ahead journal after a simulated crash reproduces the
// applied state exactly.
//
// The external test package lets these tests import controlplane, wire,
// and journal (which all import faults) without a cycle.
package faults_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/core"
	"p4runpro/internal/faults"
	"p4runpro/internal/journal"
	"p4runpro/internal/rmt"
	"p4runpro/internal/wire"
)

// chaosSrcA is the pre-fault workload: one program with memory.
const chaosSrcA = `
@ amem 128
program chaosa(<hdr.ipv4.src, 10.0.0.0, 0xff000000>) {
    LOADI(sar, 1);
    HASH_5_TUPLE_MEM(amem);
    MEMADD(amem);
}
`

// chaosSrcB is the blob deployed under fault: two programs in one source,
// so a mid-blob failure exercises the atomic multi-program unwind.
const chaosSrcB = `
@ bmem 128
program chaosb1(<hdr.ipv4.src, 11.0.0.0, 0xff000000>) {
    LOADI(sar, 1);
    HASH_5_TUPLE_MEM(bmem);
    MEMADD(bmem);
}

program chaosb2(<hdr.ipv4.src, 12.0.0.0, 0xff000000>) {
    DROP;
}
`

// digest returns the comparable image of control-plane state. ProgramID is
// zeroed: a deploy that failed live but replays clean (the fault is gone on
// recovery) may shift ID allocation order without changing behavior.
func digest(ct *controlplane.Controller) (progs []controlplane.ProgramInfo, util any) {
	progs = ct.Programs()
	for i := range progs {
		progs[i].ProgramID = 0
	}
	sort.Slice(progs, func(i, j int) bool { return progs[i].Name < progs[j].Name })
	return progs, ct.Utilization()
}

func hasProgram(ct *controlplane.Controller, name string) bool {
	for _, pi := range ct.Programs() {
		if pi.Name == name {
			return true
		}
	}
	return false
}

func recoverController(t *testing.T, dir string) *controlplane.Controller {
	t.Helper()
	ct, err := controlplane.Recover(dir, rmt.DefaultConfig(), core.DefaultOptions(),
		journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		t.Fatalf("recover %s: %v", dir, err)
	}
	return ct
}

// TestChaosEveryPoint iterates the whole fault registry. For each point a
// fresh journaled daemon stack is built, one program is deployed cleanly,
// the point is armed to fail its next hit, and a two-program blob is
// deployed through the wire client.
func TestChaosEveryPoint(t *testing.T) {
	// The registry also holds "test.*" fixture points registered by the
	// faults package's own unit tests (no production code checks those),
	// "upgrade.*" points that only fire on the versioned-upgrade path, which
	// this deploy workload never reaches — TestChaosUpgradePoints covers
	// them with an upgrade workload — and "wire.pipeline.*" client-side
	// points that only fire on the pipelined-batch path, covered by
	// TestChaosPipelineFlush.
	points := make([]string, 0, 5)
	for _, name := range faults.Points() {
		if !strings.HasPrefix(name, "test.") && !strings.HasPrefix(name, "upgrade.") &&
			!strings.HasPrefix(name, "wire.pipeline.") {
			points = append(points, name)
		}
	}
	if len(points) < 5 {
		t.Fatalf("registry has %d production points, want at least 5: %v", len(points), points)
	}
	for _, name := range points {
		t.Run(name, func(t *testing.T) {
			defer faults.DisarmAll()
			pt, ok := faults.Lookup(name)
			if !ok {
				t.Fatalf("point %s vanished", name)
			}

			dir := t.TempDir()
			ct := recoverController(t, dir)
			srv := wire.NewServer(ct, nil)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			cl, err := wire.Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()

			if _, err := cl.Deploy(chaosSrcA); err != nil {
				t.Fatalf("pre-fault deploy: %v", err)
			}
			baseProgs, baseUtil := digest(ct)

			// Arm and attempt the blob deploy. wire.conn.* faults kill the
			// connection (the request may or may not have been dispatched);
			// the in-process faults surface the injected error verbatim.
			pt.FailNth(1, nil)
			_, err = cl.Deploy(chaosSrcB)
			if err == nil {
				t.Fatal("deploy under fault reported success")
			}
			transport := strings.HasPrefix(name, "wire.conn.")
			if !transport && !strings.Contains(err.Error(), "injected failure") {
				t.Fatalf("error lost the injected cause: %v", err)
			}

			// Invariant: the blob is atomic. Either both programs linked
			// (the response was lost after dispatch) or neither did —
			// a partially-linked blob must never be visible.
			b1, b2 := hasProgram(ct, "chaosb1"), hasProgram(ct, "chaosb2")
			if b1 != b2 {
				t.Fatalf("partial blob visible: chaosb1=%v chaosb2=%v", b1, b2)
			}
			applied := b1
			if applied && name != "wire.conn.write" {
				t.Fatalf("point %s applied the blob despite failing", name)
			}

			// Invariant: a failed deploy releases every resource.
			if !applied {
				progs, util := digest(ct)
				if !reflect.DeepEqual(progs, baseProgs) {
					t.Fatalf("programs changed by failed deploy: %v != %v", progs, baseProgs)
				}
				if !reflect.DeepEqual(util, baseUtil) {
					t.Fatalf("resources leaked by failed deploy:\n got %v\nwant %v", util, baseUtil)
				}
			}

			// Invariant: the fault is transient — disarm and the same
			// operation succeeds on a fresh attempt (the client reconnects
			// transparently after a killed connection).
			faults.DisarmAll()
			if !applied {
				if _, err := cl.Deploy(chaosSrcB); err != nil {
					t.Fatalf("retry after disarm: %v", err)
				}
			}
			if _, err := cl.Do(context.Background(), wire.MethodMemWrite, wire.MemWriteParams{Program: "chaosa", Mem: "amem", Addr: 3, Value: 77}, nil); err != nil {
				t.Fatalf("post-fault memwrite: %v", err)
			}

			// Invariant: crash now (no orderly close) and recovery replays
			// the journal to exactly the live state — the applied prefix,
			// nothing more, nothing less.
			liveProgs, liveUtil := digest(ct)
			rec := recoverController(t, dir)
			recProgs, recUtil := digest(rec)
			if !reflect.DeepEqual(recProgs, liveProgs) {
				t.Fatalf("recovered programs diverge:\n got %+v\nwant %+v", recProgs, liveProgs)
			}
			if !reflect.DeepEqual(recUtil, liveUtil) {
				t.Fatalf("recovered utilization diverges:\n got %v\nwant %v", recUtil, liveUtil)
			}
			v, err := rec.ReadMemory("chaosa", "amem", 3)
			if err != nil || v != 77 {
				t.Fatalf("recovered memory word = %d, %v; want 77", v, err)
			}
		})
	}
}

// chaosSrcAv2 upgrades chaosa in place: same name, same filter, same memory
// block (so state migration has something to carry over), different body.
const chaosSrcAv2 = `
@ amem 128
program chaosa(<hdr.ipv4.src, 10.0.0.0, 0xff000000>) {
    LOADI(sar, 2);
    HASH_5_TUPLE_MEM(amem);
    MEMADD(amem);
}
`

// TestChaosUpgradePoints arms each upgrade.* fault point in turn and drives
// a full versioned upgrade (prepare, cutover to v2, commit) against a
// journaled controller. Exactly one step must fail cleanly with the
// injected cause, the switch must be left on a single consistent version,
// resuming from the failed step after disarm must complete the upgrade, and
// crash-recovery must replay to the committed v2 image.
func TestChaosUpgradePoints(t *testing.T) {
	var upgradePoints []string
	for _, name := range faults.Points() {
		if strings.HasPrefix(name, "upgrade.") {
			upgradePoints = append(upgradePoints, name)
		}
	}
	if len(upgradePoints) < 3 {
		t.Fatalf("registry has %d upgrade points, want at least 3: %v", len(upgradePoints), upgradePoints)
	}
	for _, name := range upgradePoints {
		t.Run(name, func(t *testing.T) {
			defer faults.DisarmAll()
			pt, ok := faults.Lookup(name)
			if !ok {
				t.Fatalf("point %s vanished", name)
			}

			dir := t.TempDir()
			ct := recoverController(t, dir)
			if _, err := ct.Deploy(chaosSrcA); err != nil {
				t.Fatalf("pre-upgrade deploy: %v", err)
			}
			if err := ct.WriteMemory("chaosa", "amem", 3, 77); err != nil {
				t.Fatal(err)
			}
			baseProgs, baseUtil := digest(ct)

			steps := []struct {
				name string
				run  func() error
			}{
				{"prepare", func() error { _, err := ct.UpgradePrepare("chaosa", chaosSrcAv2); return err }},
				{"cutover", func() error { _, err := ct.UpgradeCutover("chaosa", 2); return err }},
				{"commit", func() error { _, err := ct.UpgradeCommit("chaosa"); return err }},
			}
			pt.FailNth(1, nil)
			failedAt := -1
			for i, st := range steps {
				if err := st.run(); err != nil {
					if !strings.Contains(err.Error(), "injected failure") {
						t.Fatalf("step %s: error lost the injected cause: %v", st.name, err)
					}
					failedAt = i
					break
				}
			}
			if failedAt < 0 {
				t.Fatal("upgrade under fault reported success at every step")
			}

			// Invariant: the failure leaves one consistent version serving.
			switch steps[failedAt].name {
			case "prepare":
				// The unwind must restore the pre-upgrade image exactly.
				progs, util := digest(ct)
				if !reflect.DeepEqual(progs, baseProgs) {
					t.Fatalf("failed prepare changed programs:\n got %+v\nwant %+v", progs, baseProgs)
				}
				if !reflect.DeepEqual(util, baseUtil) {
					t.Fatalf("failed prepare leaked resources:\n got %v\nwant %v", util, baseUtil)
				}
			case "cutover":
				st, err := ct.UpgradeStatus("chaosa")
				if err != nil || st.ActiveVersion != 1 {
					t.Fatalf("failed cutover left active version %d, %v; want 1", st.ActiveVersion, err)
				}
			case "commit":
				st, err := ct.UpgradeStatus("chaosa")
				if err != nil || st.ActiveVersion != 2 {
					t.Fatalf("failed commit left active version %d, %v; want 2", st.ActiveVersion, err)
				}
			}

			// Invariant: the fault is transient — resume from the failed step.
			faults.DisarmAll()
			for _, st := range steps[failedAt:] {
				if err := st.run(); err != nil {
					t.Fatalf("step %s after disarm: %v", st.name, err)
				}
			}
			st, err := ct.UpgradeStatus("chaosa")
			if err != nil || st.State != "committed" {
				t.Fatalf("upgrade status after resume = %+v, %v; want committed", st, err)
			}
			if v, err := ct.ReadMemory("chaosa", "amem", 3); err != nil || v != 77 {
				t.Fatalf("migrated memory word = %d, %v; want 77", v, err)
			}

			// Invariant: crash and recover to the committed v2 image.
			liveProgs, liveUtil := digest(ct)
			rec := recoverController(t, dir)
			recProgs, recUtil := digest(rec)
			if !reflect.DeepEqual(recProgs, liveProgs) {
				t.Fatalf("recovered programs diverge:\n got %+v\nwant %+v", recProgs, liveProgs)
			}
			if !reflect.DeepEqual(recUtil, liveUtil) {
				t.Fatalf("recovered utilization diverges:\n got %v\nwant %v", recUtil, liveUtil)
			}
			if v, err := rec.ReadMemory("chaosa", "amem", 3); err != nil || v != 77 {
				t.Fatalf("recovered memory word = %d, %v; want 77", v, err)
			}
		})
	}
}

// TestChaosInsertFailureAtEveryEntry fails table-entry installation at
// every position of a two-program blob's install sequence in turn. Each
// failure must surface, leave no program visible, release every entry and
// memory word, and permit an immediately successful retry.
func TestChaosInsertFailureAtEveryEntry(t *testing.T) {
	pt, ok := faults.Lookup("rmt.table.insert")
	if !ok {
		t.Fatal("rmt.table.insert not registered")
	}
	defer faults.DisarmAll()

	// Count the blob's insert sites with an unreachable nth armed (hits
	// are only counted while armed).
	probe, err := controlplane.New(rmt.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pt.FailNth(1<<62, nil)
	if _, err := probe.Deploy(chaosSrcB); err != nil {
		t.Fatalf("probe deploy: %v", err)
	}
	total := int(pt.Hits())
	faults.DisarmAll()
	if total < 2 {
		t.Fatalf("blob installs only %d entries; sweep needs at least 2", total)
	}

	for nth := 1; nth <= total; nth++ {
		ct, err := controlplane.New(rmt.DefaultConfig(), core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		baseline := ct.Utilization()

		pt.FailNth(uint64(nth), nil)
		_, err = ct.Deploy(chaosSrcB)
		faults.DisarmAll()
		if err == nil {
			t.Fatalf("nth=%d: deploy succeeded under fault", nth)
		}
		if !errors.Is(err, faults.ErrInjected) {
			t.Fatalf("nth=%d: error chain lost ErrInjected: %v", nth, err)
		}
		if n := len(ct.Programs()); n != 0 {
			t.Fatalf("nth=%d: %d programs visible after failed blob", nth, n)
		}
		if util := ct.Utilization(); !reflect.DeepEqual(util, baseline) {
			t.Fatalf("nth=%d: resources leaked:\n got %v\nwant %v", nth, util, baseline)
		}
		if _, err := ct.Deploy(chaosSrcB); err != nil {
			t.Fatalf("nth=%d: retry after disarm: %v", nth, err)
		}
	}
}

// TestChaosPipelineFlush arms the client-side pipeline flush point: the
// batch must fail whole before any request reaches the server, every
// queued call must carry the injected error, and after disarming the same
// pipeline contents must flush successfully on the untouched connection.
func TestChaosPipelineFlush(t *testing.T) {
	pt, ok := faults.Lookup("wire.pipeline.flush")
	if !ok {
		t.Fatal("wire.pipeline.flush not registered")
	}
	defer faults.DisarmAll()

	dir := t.TempDir()
	ct := recoverController(t, dir)
	srv := wire.NewServer(ct, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	pt.FailNth(1, nil)
	p := cl.Pipeline()
	var resA, resB []wire.DeployResult
	pcA := p.Call(wire.MethodDeploy, wire.DeployParams{Source: chaosSrcA}, &resA)
	pcB := p.Call(wire.MethodDeploy, wire.DeployParams{Source: chaosSrcB}, &resB)
	err = p.Flush()
	if err == nil {
		t.Fatal("pipeline flush under fault reported success")
	}
	if !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("flush error lost the injected cause: %v", err)
	}
	for i, pc := range []*wire.PendingCall{pcA, pcB} {
		if pc.Err() == nil || !strings.Contains(pc.Err().Error(), "injected failure") {
			t.Fatalf("call %d error = %v, want injected failure", i, pc.Err())
		}
	}
	if n := len(ct.Programs()); n != 0 {
		t.Fatalf("%d programs linked by a flush that failed before writing", n)
	}

	// The connection was never poisoned: the same batch succeeds after
	// disarming, without redialing.
	faults.DisarmAll()
	p = cl.Pipeline()
	pcA = p.Call(wire.MethodDeploy, wire.DeployParams{Source: chaosSrcA}, &resA)
	pcB = p.Call(wire.MethodDeploy, wire.DeployParams{Source: chaosSrcB}, &resB)
	if err := p.Flush(); err != nil {
		t.Fatalf("flush after disarm: %v", err)
	}
	if pcA.Err() != nil || pcB.Err() != nil {
		t.Fatalf("call errors after disarm: %v, %v", pcA.Err(), pcB.Err())
	}
	if len(resA) != 1 || len(resB) != 2 {
		t.Fatalf("pipelined deploys linked %d+%d programs, want 1+2", len(resA), len(resB))
	}
}

// TestChaosCrashMidGroupCommit crashes a controller in the middle of a
// group-committed memory batch — the batch spans two journal records made
// durable by one fsync — by truncating the WAL at byte offsets inside the
// group, and asserts recovery replays exactly a record-prefix of the
// batch: all writes of the intact leading records, none of the torn tail.
func TestChaosCrashMidGroupCommit(t *testing.T) {
	const memSize = 128
	dir := t.TempDir()
	ct := recoverController(t, dir)
	if _, err := ct.Deploy(chaosSrcA); err != nil {
		t.Fatal(err)
	}
	preBatch := ct.Journal().SegmentBytes()

	// A batch larger than one chunk record journals as two records in one
	// commit group. Addresses cycle the block; values are distinct.
	total := controlplane.MemWriteBatchChunk + 4*memSize
	writes := make([]controlplane.MemWrite, total)
	for i := range writes {
		writes[i] = controlplane.MemWrite{Addr: uint32(i % memSize), Value: uint32(i + 1)}
	}
	if n, err := ct.WriteMemoryBatch("chaosa", "amem", writes); err != nil || n != total {
		t.Fatalf("WriteMemoryBatch = %d, %v; want %d", n, err, total)
	}
	postBatch := ct.Journal().SegmentBytes()
	if postBatch <= preBatch {
		t.Fatalf("batch appended no bytes: %d -> %d", preBatch, postBatch)
	}

	// expected computes the memory image after replaying the first k batch
	// writes.
	expected := func(k int) []uint32 {
		img := make([]uint32, memSize)
		for i := 0; i < k; i++ {
			img[writes[i].Addr] = writes[i].Value
		}
		return img
	}

	cases := []struct {
		name     string
		truncAt  int64
		prefixed int // batch writes that must survive
	}{
		// Torn inside the group's first record: the whole batch is lost.
		{"mid-first-record", preBatch + 10, 0},
		// Torn inside the second record: the first chunk record is intact
		// and must replay; the torn record must not.
		{"mid-second-record", postBatch - 3, controlplane.MemWriteBatchChunk},
		// No tearing: the whole group replays.
		{"intact", postBatch, total},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			crashDir := t.TempDir()
			copyWalDir(t, dir, crashDir)
			seg := activeSegment(t, crashDir)
			if err := os.Truncate(seg, tc.truncAt); err != nil {
				t.Fatal(err)
			}
			rec := recoverController(t, crashDir)
			got, err := rec.ReadMemoryRange("chaosa", "amem", 0, memSize)
			if err != nil {
				t.Fatal(err)
			}
			if want := expected(tc.prefixed); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovered memory is not the %d-write prefix:\n got %v\nwant %v",
					tc.prefixed, got, want)
			}
		})
	}
}

// copyWalDir clones a journal directory for a crash simulation.
func copyWalDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// activeSegment returns the highest-numbered WAL segment in dir.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seg string
	for _, e := range entries {
		n := e.Name()
		if strings.HasPrefix(n, "wal-") && strings.HasSuffix(n, ".log") && n > seg {
			seg = n
		}
	}
	if seg == "" {
		t.Fatalf("no WAL segment in %s", dir)
	}
	return filepath.Join(dir, seg)
}

// TestChaosSeededJournalFaults drives a burst of memory writes with the
// journal's append point failing pseudo-randomly from a fixed seed, then
// crashes and recovers. The recovered memory must match the live image
// word for word: every write that reported success survived, every write
// that reported failure left no trace.
func TestChaosSeededJournalFaults(t *testing.T) {
	pt, ok := faults.Lookup("journal.append")
	if !ok {
		t.Fatal("journal.append not registered")
	}
	defer faults.DisarmAll()

	dir := t.TempDir()
	ct := recoverController(t, dir)
	if _, err := ct.Deploy(chaosSrcA); err != nil {
		t.Fatal(err)
	}

	pt.FailSeeded(42, 0.4, nil)
	okN, failN := 0, 0
	for i := 0; i < 48; i++ {
		err := ct.WriteMemory("chaosa", "amem", uint32(i%128), uint32(i+1))
		if err != nil {
			if !strings.Contains(err.Error(), "injected failure") {
				t.Fatalf("write %d: unexpected error: %v", i, err)
			}
			failN++
		} else {
			okN++
		}
	}
	faults.DisarmAll()
	if okN == 0 || failN == 0 {
		t.Fatalf("seed produced no mix of outcomes: ok=%d fail=%d", okN, failN)
	}

	live, err := ct.ReadMemoryRange("chaosa", "amem", 0, 128)
	if err != nil {
		t.Fatal(err)
	}
	rec := recoverController(t, dir)
	got, err := rec.ReadMemoryRange("chaosa", "amem", 0, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, live) {
		t.Fatalf("recovered memory diverges from live image:\n got %v\nwant %v", got, live)
	}
}
