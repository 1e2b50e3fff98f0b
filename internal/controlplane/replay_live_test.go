package controlplane

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"p4runpro/internal/core"
	"p4runpro/internal/journal"
	"p4runpro/internal/obs/trace"
	"p4runpro/internal/rmt"
	"p4runpro/internal/upgrade"
)

// replayRow is one journal op driven through its live exported verb: setup
// builds the state the verb needs, live is the verb under test.
type replayRow struct {
	setup []func(*Controller) error
	live  func(*Controller) error
}

// replayCounterSrc is a second, stateful program beside recCacheSrc.
const replayCounterSrc = `
@ cnt 256
program counter(<hdr.ipv4.src, 10.0.0.0, 0xff000000>) {
    LOADI(sar, 1);
    HASH_5_TUPLE_MEM(cnt);
    MEMADD(cnt);
}
`

func deployStep(src string) func(*Controller) error {
	return func(ct *Controller) error { _, err := ct.Deploy(src); return err }
}

func prepareStep(ct *Controller) error {
	_, err := ct.UpgradePrepare("upgrec", upgRecV2Src)
	return err
}

var replayRows = map[journal.Op]replayRow{
	journal.OpDeploy: {live: deployStep(recCacheSrc)},
	journal.OpRevoke: {
		setup: []func(*Controller) error{deployStep(recCacheSrc), deployStep(replayCounterSrc)},
		live:  func(ct *Controller) error { _, err := ct.Revoke("counter"); return err },
	},
	journal.OpAddCases: {
		setup: []func(*Controller) error{deployStep(recCacheSrc)},
		live: func(ct *Controller) error {
			_, _, err := ct.AddCases(context.Background(), "cache", 4, recCaseSrc)
			return err
		},
	},
	journal.OpRemoveCase: {
		setup: []func(*Controller) error{deployStep(recCacheSrc),
			func(ct *Controller) error {
				_, _, err := ct.AddCases(context.Background(), "cache", 4, recCaseSrc)
				return err
			}},
		live: func(ct *Controller) error { return ct.RemoveCase(context.Background(), "cache", 3) },
	},
	journal.OpMemWrite: {
		setup: []func(*Controller) error{deployStep(recCacheSrc)},
		live:  func(ct *Controller) error { return ct.WriteMemory(context.Background(), "cache", "mem1", 512, 99) },
	},
	journal.OpMcastSet: {live: func(ct *Controller) error { return ct.SetMulticastGroup(context.Background(), 7, []int{1, 2, 5}) }},
	journal.OpUpgradePrepare: {
		setup: []func(*Controller) error{deployStep(upgRecV1Src),
			func(ct *Controller) error { return ct.WriteMemory(context.Background(), "upgrec", "tbl", 5, 41) }},
		live: prepareStep,
	},
	journal.OpUpgradeCutover: {
		setup: []func(*Controller) error{deployStep(upgRecV1Src), prepareStep},
		live:  func(ct *Controller) error { _, err := ct.UpgradeCutover("upgrec", 2); return err },
	},
	journal.OpUpgradeCommit: {
		setup: []func(*Controller) error{deployStep(upgRecV1Src), prepareStep,
			func(ct *Controller) error { _, err := ct.UpgradeCutover("upgrec", 2); return err }},
		live: func(ct *Controller) error { _, err := ct.UpgradeCommit("upgrec"); return err },
	},
	journal.OpUpgradeAbort: {
		setup: []func(*Controller) error{deployStep(upgRecV1Src), prepareStep},
		live:  func(ct *Controller) error { _, err := ct.UpgradeAbort(context.Background(), "upgrec"); return err },
	},
	journal.OpDeployBatch: {live: func(ct *Controller) error {
		outcomes, err := ct.DeployAll([]string{recCacheSrc, "program broken(", replayCounterSrc}, false)
		if err == nil && (outcomes[0].Err != nil || outcomes[1].Err == nil || outcomes[2].Err != nil) {
			err = outcomes[0].Err
		}
		return err
	}},
	journal.OpMemWriteBatch: {
		setup: []func(*Controller) error{deployStep(recCacheSrc)},
		live: func(ct *Controller) error {
			_, err := ct.WriteMemoryBatch("cache", "mem1", []MemWrite{{Addr: 1, Value: 11}, {Addr: 700, Value: 1234}})
			return err
		},
	},
}

// upgradeDigest is the part of an upgrade session a recovery must
// reproduce (packet counters and the measured cutover time are not).
type upgradeDigest struct {
	Program, V2Name, State string
	ActiveVersion          int
	V1PID, V2PID           uint16
	MigratedWords          uint32
}

// upgradeDigests digests every upgrade session of ct, sorted by program.
func upgradeDigests(ct *Controller) []upgradeDigest {
	ct.upMu.Lock()
	sessions := make([]*upgrade.Session, 0, len(ct.upgrades))
	for _, s := range ct.upgrades {
		sessions = append(sessions, s)
	}
	ct.upMu.Unlock()
	out := make([]upgradeDigest, 0, len(sessions))
	for _, s := range sessions {
		st := s.Status()
		out = append(out, upgradeDigest{st.Program, st.V2Name, st.State, st.ActiveVersion, st.V1PID, st.V2PID, st.MigratedWords})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Program < out[j].Program })
	return out
}

func tableEntries(ct *Controller) int {
	n := 0
	for _, t := range ct.SW.Tables() {
		n += t.Len()
	}
	return n
}

// TestReplayEqualsLive runs every journal op through its live verb on a
// journaled controller, recovers a second controller from that journal,
// and requires the two to agree on programs, entry counts, memory words,
// multicast groups and upgrade status. A journal op without a row fails
// the test, so a new op cannot ship without this check.
func TestReplayEqualsLive(t *testing.T) {
	// Every op the journal can encode: EncodeRecord rejects the first
	// value past the last constant.
	var ops []journal.Op
	for op := journal.Op(1); ; op++ {
		if _, err := journal.EncodeRecord(journal.Record{Op: op}); err != nil {
			break
		}
		ops = append(ops, op)
	}
	if len(ops) < 12 {
		t.Fatalf("enumerated %d journal ops, want at least the 12 known", len(ops))
	}
	for _, jop := range ops {
		row, ok := replayRows[jop]
		if !ok {
			t.Errorf("journal op %s has no replay≡live row", jop)
			continue
		}
		t.Run(jop.String(), func(t *testing.T) {
			dir := t.TempDir()
			jopt := journal.Options{Sync: journal.SyncNone}
			live, err := Recover(dir, rmt.DefaultConfig(), core.DefaultOptions(), jopt)
			if err != nil {
				t.Fatal(err)
			}
			for i, step := range row.setup {
				if err := step(live); err != nil {
					t.Fatalf("setup step %d: %v", i, err)
				}
			}
			if err := row.live(live); err != nil {
				t.Fatalf("live verb: %v", err)
			}
			if err := live.Journal().Close(); err != nil {
				t.Fatal(err)
			}

			j, recs, err := journal.Open(dir, jopt)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if len(recs) != len(row.setup)+1 || recs[len(recs)-1].Op != jop {
				t.Fatalf("journal holds %d records ending in %v, want %d ending in %s",
					len(recs), recs[len(recs)-1].Op, len(row.setup)+1, jop)
			}

			replayed, err := Recover(dir, rmt.DefaultConfig(), core.DefaultOptions(), jopt)
			if err != nil {
				t.Fatal(err)
			}
			defer replayed.Journal().Close()
			if a, b := digestState(t, live, recMcastGroups), digestState(t, replayed, recMcastGroups); !reflect.DeepEqual(a, b) {
				t.Errorf("state diverges:\n live:     %+v\n replayed: %+v", a, b)
			}
			if a, b := tableEntries(live), tableEntries(replayed); a != b {
				t.Errorf("switch holds %d entries live, %d replayed", a, b)
			}
			if a, b := upgradeDigests(live), upgradeDigests(replayed); !reflect.DeepEqual(a, b) {
				t.Errorf("upgrade status diverges:\n live:     %+v\n replayed: %+v", a, b)
			}
		})
	}
}

// spanNames lists the span names of ct's most recent trace.
func spanNames(t *testing.T, tr *trace.Tracer) map[string]int {
	t.Helper()
	snaps := tr.Recent(1)
	if len(snaps) != 1 {
		t.Fatalf("tracer holds %d traces, want 1", len(snaps))
	}
	names := make(map[string]int)
	for _, sp := range snaps[0].Spans {
		names[sp.Name]++
	}
	return names
}
