// Tests for the hitless versioned-upgrade state machine, driven through the
// controller the way an operator (or a fleet rollout) drives it. The churn
// test is the mixed-version property test: under concurrent traffic and
// repeated cutovers, no sampled packet may ever traverse entries of both
// versions — the postcards are the witness.
package upgrade_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/core"
	"p4runpro/internal/dataplane"
	"p4runpro/internal/faults"
	"p4runpro/internal/pkt"
	"p4runpro/internal/rmt"
	"p4runpro/internal/upgrade"
)

// upgV1Src counts packets: +1 per matching packet into one hashed slot.
const upgV1Src = `
@ tbl 256
program upg(<hdr.ipv4.src, 10.0.0.0, 0xff000000>) {
    LOADI(sar, 1);
    HASH_5_TUPLE_MEM(tbl);
    MEMADD(tbl);
    FORWARD(2);
}
`

// upgV2Src is the same program, v2 semantics: +2 per packet. The shared
// block name makes state migration observable (v2 resumes v1's counts).
const upgV2Src = `
@ tbl 256
program upg(<hdr.ipv4.src, 10.0.0.0, 0xff000000>) {
    LOADI(sar, 2);
    HASH_5_TUPLE_MEM(tbl);
    MEMADD(tbl);
    FORWARD(3);
}
`

// upgTwoPassSrc is a v1/v2 pair whose forward lands on the second pass:
// ten ADDIs fill the first pass's ingress RPBs, so the packet recirculates
// before it reaches FORWARD(port).
func upgTwoPassSrc(port int) string {
	return `
program upg(<hdr.ipv4.src, 10.0.0.0, 0xff000000>) {
` + strings.Repeat("    ADDI(har, 1);\n", 10) + fmt.Sprintf("    FORWARD(%d);\n}\n", port)
}

func newUpgradeController(t *testing.T) *controlplane.Controller {
	t.Helper()
	ct, err := controlplane.New(rmt.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func upgFlow(a, b byte) pkt.FiveTuple {
	return pkt.FiveTuple{SrcIP: pkt.IP(10, 0, a, b), DstIP: 9, SrcPort: 1, DstPort: 2, Proto: pkt.ProtoUDP}
}

func injectN(t *testing.T, ct *controlplane.Controller, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if r := ct.SW.Inject(pkt.NewUDP(upgFlow(7, 7), 100), 1); r.Verdict != rmt.VerdictForwarded {
			t.Fatalf("packet %d: verdict %v, want forwarded", i, r.Verdict)
		}
	}
}

func memSum(t *testing.T, ct *controlplane.Controller, prog string) uint64 {
	t.Helper()
	vals, err := ct.ReadMemoryRange(prog, "tbl", 0, 256)
	if err != nil {
		t.Fatalf("read %s/tbl: %v", prog, err)
	}
	var s uint64
	for _, v := range vals {
		s += uint64(v)
	}
	return s
}

func programNames(ct *controlplane.Controller) []string {
	var out []string
	for _, p := range ct.Programs() {
		out = append(out, p.Name)
	}
	return out
}

// TestUpgradeLifecycle walks the full state machine on one switch: prepare
// keeps traffic on v1 while v2 resumes migrated state, cutover moves new
// packets to v2 (and back), commit renames v2 into v1's place.
func TestUpgradeLifecycle(t *testing.T) {
	ct := newUpgradeController(t)
	if _, err := ct.Deploy(upgV1Src); err != nil {
		t.Fatal(err)
	}
	injectN(t, ct, 10)
	if got := memSum(t, ct, "upg"); got != 10 {
		t.Fatalf("v1 count = %d, want 10", got)
	}

	st, err := ct.UpgradePrepare("upg", upgV2Src)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "prepared" || st.ActiveVersion != 1 {
		t.Fatalf("after prepare: state=%s active=%d", st.State, st.ActiveVersion)
	}
	if st.MigratedWords != 256 {
		t.Fatalf("migrated %d words, want 256", st.MigratedWords)
	}
	// v2 resumed v1's sketch at prepare time.
	if got := memSum(t, ct, "upg"+upgrade.VersionSuffix); got != 10 {
		t.Fatalf("v2 migrated count = %d, want 10", got)
	}

	// Prepared but not cut over: traffic still lands on v1.
	injectN(t, ct, 5)
	if got := memSum(t, ct, "upg"); got != 15 {
		t.Fatalf("v1 count after prepare = %d, want 15", got)
	}
	if got := memSum(t, ct, "upg"+upgrade.VersionSuffix); got != 10 {
		t.Fatalf("v2 count while v1 active = %d, want 10", got)
	}
	st, _ = ct.UpgradeStatus("upg")
	if st.V1Packets != 5 || st.V2Packets != 0 {
		t.Fatalf("packet counts v1=%d v2=%d, want 5/0", st.V1Packets, st.V2Packets)
	}

	// Cut over: new packets run v2 (+2 each), v1 memory freezes.
	st, err = ct.UpgradeCutover("upg", 2)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "cutover" || st.ActiveVersion != 2 {
		t.Fatalf("after cutover: state=%s active=%d", st.State, st.ActiveVersion)
	}
	injectN(t, ct, 5)
	if got := memSum(t, ct, "upg"+upgrade.VersionSuffix); got != 20 {
		t.Fatalf("v2 count after cutover = %d, want 20", got)
	}
	if got := memSum(t, ct, "upg"); got != 15 {
		t.Fatalf("v1 count after cutover = %d, want 15 (frozen)", got)
	}
	st, _ = ct.UpgradeStatus("upg")
	if st.V2Packets != 5 {
		t.Fatalf("v2 packet count = %d, want 5", st.V2Packets)
	}

	// Roll traffic back (data plane half of a rollback) and forward again.
	if st, err = ct.UpgradeCutover("upg", 1); err != nil || st.ActiveVersion != 1 {
		t.Fatalf("cutover back to 1: %+v, %v", st, err)
	}
	injectN(t, ct, 2)
	if got := memSum(t, ct, "upg"); got != 17 {
		t.Fatalf("v1 count after rollback = %d, want 17", got)
	}
	if _, err = ct.UpgradeCutover("upg", 2); err != nil {
		t.Fatal(err)
	}

	// Commit: v2 takes over the name, v1 is gone.
	st, err = ct.UpgradeCommit("upg")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "committed" || st.ActiveVersion != 2 {
		t.Fatalf("after commit: state=%s active=%d", st.State, st.ActiveVersion)
	}
	if names := programNames(ct); len(names) != 1 || names[0] != "upg" {
		t.Fatalf("programs after commit = %v, want [upg]", names)
	}
	if _, linked := ct.Compiler.Linked("upg" + upgrade.VersionSuffix); linked {
		t.Fatal("v2 alias still linked after commit")
	}
	// The renamed program serves with v2 semantics and the migrated history.
	injectN(t, ct, 5)
	if got := memSum(t, ct, "upg"); got != 30 {
		t.Fatalf("count after commit = %d, want 30 (20 carried + 5*2)", got)
	}
}

// TestUpgradeAbort rolls an in-flight cutover back: v2 vanishes, v1 serves
// as if nothing happened.
func TestUpgradeAbort(t *testing.T) {
	ct := newUpgradeController(t)
	if _, err := ct.Deploy(upgV1Src); err != nil {
		t.Fatal(err)
	}
	injectN(t, ct, 10)
	if _, err := ct.UpgradePrepare("upg", upgV2Src); err != nil {
		t.Fatal(err)
	}
	if _, err := ct.UpgradeCutover("upg", 2); err != nil {
		t.Fatal(err)
	}
	injectN(t, ct, 5) // v2 traffic that the abort throws away

	st, err := ct.UpgradeAbort(context.Background(), "upg")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "aborted" || st.ActiveVersion != 1 {
		t.Fatalf("after abort: state=%s active=%d", st.State, st.ActiveVersion)
	}
	if names := programNames(ct); len(names) != 1 || names[0] != "upg" {
		t.Fatalf("programs after abort = %v, want [upg]", names)
	}
	if _, linked := ct.Compiler.Linked("upg" + upgrade.VersionSuffix); linked {
		t.Fatal("v2 still linked after abort")
	}
	injectN(t, ct, 5)
	if got := memSum(t, ct, "upg"); got != 15 {
		t.Fatalf("v1 count after abort = %d, want 15 (v2 window discarded)", got)
	}
}

// TestCommitRetryAfterInsertFailure fails the second init-table insert of
// a commit, then commits again: the failed commit installs none of v2's
// filters, so the retry installs each once and the init tables hold one
// entry per parsing path, v2's, as after a clean commit.
func TestCommitRetryAfterInsertFailure(t *testing.T) {
	pt, ok := faults.Lookup("rmt.table.insert")
	if !ok {
		t.Fatal("rmt.table.insert not registered")
	}
	defer faults.DisarmAll()
	ct := newUpgradeController(t)
	if _, err := ct.Deploy(upgV1Src); err != nil {
		t.Fatal(err)
	}
	initEntries := func() (n int) {
		for _, path := range pkt.ParsePaths {
			tbl, _ := ct.Plane.InitTable(path)
			n += tbl.Len()
		}
		return n
	}
	paths := initEntries()
	if _, err := ct.UpgradePrepare("upg", upgV2Src); err != nil {
		t.Fatal(err)
	}
	if _, err := ct.UpgradeCutover("upg", 2); err != nil {
		t.Fatal(err)
	}
	pt.FailNth(2, nil)
	_, err := ct.UpgradeCommit("upg")
	faults.DisarmAll()
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("commit under fault: %v, want the injected failure", err)
	}
	if _, err := ct.UpgradeCommit("upg"); err != nil {
		t.Fatalf("commit retry: %v", err)
	}
	if n := initEntries(); n != paths {
		t.Fatalf("init tables hold %d entries after the retried commit, want %d", n, paths)
	}
	for _, path := range pkt.ParsePaths {
		if tbl, _ := ct.Plane.InitTable(path); tbl.Len() > 1 {
			t.Fatalf("%s holds %d entries, want at most 1", tbl.Name, tbl.Len())
		}
	}
	injectN(t, ct, 3)
	if got := memSum(t, ct, "upg"); got != 6 {
		t.Fatalf("count after retried commit = %d, want 6 (3 packets at +2)", got)
	}
}

// TestUpgradeStateMachineGuards exercises the rejected transitions.
func TestUpgradeStateMachineGuards(t *testing.T) {
	ct := newUpgradeController(t)
	if _, err := ct.Deploy(upgV1Src); err != nil {
		t.Fatal(err)
	}
	if _, err := ct.UpgradeCutover("upg", 2); err == nil {
		t.Fatal("cutover without prepare accepted")
	}
	if _, err := ct.UpgradePrepare("upg", strings.Replace(upgV2Src, "program upg", "program other", 1)); err == nil {
		t.Fatal("v2 with mismatched program name accepted")
	}
	if _, err := ct.UpgradePrepare("upg", upgV2Src); err != nil {
		t.Fatal(err)
	}
	if _, err := ct.UpgradePrepare("upg", upgV2Src); err == nil {
		t.Fatal("second prepare while in flight accepted")
	}
	if _, err := ct.UpgradeCommit("upg"); err == nil {
		t.Fatal("commit from prepared (not cut over) accepted")
	}
	if _, err := ct.UpgradeCutover("upg", 3); err == nil {
		t.Fatal("cutover to unknown version accepted")
	}
	if _, err := ct.Revoke("upg"); err == nil {
		t.Fatal("revoke of program under upgrade accepted")
	}
	if _, err := ct.UpgradeCutover("upg", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := ct.UpgradeCommit("upg"); err != nil {
		t.Fatal(err)
	}
	if _, err := ct.UpgradeAbort(context.Background(), "upg"); err == nil {
		t.Fatal("abort after commit accepted")
	}
	// A committed session is terminal: the renamed program can be upgraded
	// again (the chain is what snapshot compaction replays).
	if _, err := ct.UpgradePrepare("upg", upgV2Src); err != nil {
		t.Fatalf("upgrade after committed upgrade: %v", err)
	}
	if _, err := ct.UpgradeAbort(context.Background(), "upg"); err != nil {
		t.Fatal(err)
	}
}

// TestCutoverMidRecirculation lands a cutover, each way, while a packet
// recirculates between its two passes: the recirculation hook flips the
// version as the packet re-enters. The packet got its program ID on its
// first pass and keeps it, so it runs the version it started on whole; the
// next packet runs the other one.
func TestCutoverMidRecirculation(t *testing.T) {
	for _, tc := range []struct {
		name          string
		before, after int // version cut over to before the packet, and mid-flight
		port, next    int // where the straddling packet and the next one leave
		foreign       string
	}{
		{"to-v2", 1, 2, 2, 3, "upg" + upgrade.VersionSuffix},
		{"to-v1", 2, 1, 3, 2, "upg"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ct := newUpgradeController(t)
			if _, err := ct.Deploy(upgTwoPassSrc(2)); err != nil {
				t.Fatal(err)
			}
			if infos := ct.Programs(); infos[0].Passes != 2 {
				t.Fatalf("v1 runs in %d pass(es), want 2", infos[0].Passes)
			}
			if _, err := ct.UpgradePrepare("upg", upgTwoPassSrc(3)); err != nil {
				t.Fatal(err)
			}
			if _, err := ct.UpgradeCutover("upg", tc.before); err != nil {
				t.Fatal(err)
			}
			ct.SW.EnablePostcards(1, 16)
			flipped := false
			recirc, _ := ct.SW.PHVLayout().Slot(dataplane.FieldRecirc)
			ct.SW.SetRecircHook(func(p *rmt.PHV) {
				p.Store(recirc, p.Load(recirc)+1)
				if !flipped {
					flipped = true
					if _, err := ct.UpgradeCutover("upg", tc.after); err != nil {
						t.Error(err)
					}
				}
			})
			if r := ct.SW.Inject(pkt.NewUDP(upgFlow(7, 7), 64), 1); r.Verdict != rmt.VerdictForwarded || r.OutPort != tc.port {
				t.Errorf("straddling packet: verdict %v port %d, want forwarded on port %d", r.Verdict, r.OutPort, tc.port)
			}
			if !flipped {
				t.Fatal("the packet never recirculated")
			}
			pcs := ct.SW.Postcards("", 0)
			if len(pcs) != 1 {
				t.Fatalf("%d postcards, want 1", len(pcs))
			}
			for _, h := range pcs[0].Hops {
				if h.Owner == tc.foreign {
					t.Fatalf("straddling packet ran %s entries: hops %+v", tc.foreign, pcs[0].Hops)
				}
			}
			if r := ct.SW.Inject(pkt.NewUDP(upgFlow(7, 7), 64), 1); r.Verdict != rmt.VerdictForwarded || r.OutPort != tc.next {
				t.Fatalf("next packet: verdict %v port %d, want forwarded on port %d", r.Verdict, r.OutPort, tc.next)
			}
		})
	}
}

// TestUpgradeChurnZeroMixedVersion is the mixed-version property test, and
// the churn workload CI runs under -race: four writers inject traffic while
// the cutover flips between versions 25 times, then commits. Every packet
// is sampled into a postcard; no postcard may record hops owned by both
// versions, and no packet may be dropped by the churn. It runs a one-pass
// pair and a two-pass pair, whose packets recirculate across the flips.
func TestUpgradeChurnZeroMixedVersion(t *testing.T) {
	for _, tc := range []struct{ name, v1, v2 string }{
		{"one-pass", upgV1Src, upgV2Src},
		{"two-pass", upgTwoPassSrc(2), upgTwoPassSrc(3)},
	} {
		t.Run(tc.name, func(t *testing.T) { churnZeroMixedVersion(t, tc.v1, tc.v2) })
	}
}

func churnZeroMixedVersion(t *testing.T, v1src, v2src string) {
	ct := newUpgradeController(t)
	if _, err := ct.Deploy(v1src); err != nil {
		t.Fatal(err)
	}
	ct.SW.EnablePostcards(1, 65536)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var injected, dropped atomic.Uint64
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				p := pkt.NewUDP(upgFlow(byte(w), byte(i%250)), 64)
				if r := ct.SW.Inject(p, 1); r.Verdict == rmt.VerdictDropped {
					dropped.Add(1)
				}
				injected.Add(1)
			}
		}(w)
	}

	// Pace the control plane against the writers: each version's window
	// carries at least soakPkts packets, so every flip happens under live
	// traffic.
	const soakPkts = 50
	soak := func() {
		target := injected.Load() + soakPkts
		for injected.Load() < target {
			time.Sleep(20 * time.Microsecond)
		}
	}

	soak()
	if _, err := ct.UpgradePrepare("upg", v2src); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		if _, err := ct.UpgradeCutover("upg", 2-i%2); err != nil {
			t.Fatal(err)
		}
		soak()
	}
	if _, err := ct.UpgradeCutover("upg", 2); err != nil {
		t.Fatal(err)
	}
	soak()
	// Quiesce before commit: commit relabels v2's entries to the operator
	// name, so a packet photographed mid-rename would show both labels for
	// the same (v2) tables — a false mix. The flipping window above is where
	// a genuine mix could occur.
	close(stop)
	wg.Wait()
	if _, err := ct.UpgradeCommit("upg"); err != nil {
		t.Fatal(err)
	}

	v1name, v2name := "upg", "upg"+upgrade.VersionSuffix
	var sawV1, sawV2 uint64
	for _, pc := range ct.SW.Postcards("", 0) {
		hasV1, hasV2 := false, false
		for _, h := range pc.Hops {
			switch h.Owner {
			case v1name:
				hasV1 = true
			case v2name:
				hasV2 = true
			}
		}
		if hasV1 && hasV2 {
			t.Fatalf("mixed-version packet: seq=%d flow=%+v hops=%+v",
				pc.Seq, pc.Flow, pc.Hops)
		}
		if hasV1 {
			sawV1++
		}
		if hasV2 {
			sawV2++
		}
	}
	if dropped.Load() != 0 {
		t.Fatalf("%d of %d packets dropped during churn, want 0", dropped.Load(), injected.Load())
	}
	// The churn must actually have exercised both versions under traffic,
	// or the mixed-version assertion proved nothing.
	if sawV1 == 0 || sawV2 == 0 {
		t.Fatalf("churn coverage too thin: %d v1 postcards, %d v2 postcards (injected %d)",
			sawV1, sawV2, injected.Load())
	}

	// The committed program still serves.
	if r := ct.SW.Inject(pkt.NewUDP(upgFlow(7, 7), 64), 1); r.Verdict != rmt.VerdictForwarded {
		t.Fatalf("post-commit packet verdict %v", r.Verdict)
	}
}
