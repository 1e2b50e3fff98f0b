package fleet

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/pkt"
	"p4runpro/internal/wire"
)

// counterV2Src upgrades counterSrc's semantics: +2 per packet instead of +1.
const counterV2Src = `
@ m 256
program counter(<hdr.ipv4.src, 10.0.0.0, 0xff000000>) {
    LOADI(sar, 2);
    HASH_5_TUPLE_MEM(m);
    MEMADD(m);
}
`

// counterV2BadSrc is a regressive v2: it drops every packet it matches, so
// the rollout's drop-rate gate must catch it during the canary soak.
const counterV2BadSrc = `
program counter(<hdr.ipv4.src, 10.0.0.0, 0xff000000>) {
    DROP;
}
`

// pumpTraffic drives matching packets into every member until the returned
// stop function is called — the live traffic the soak windows judge.
func pumpTraffic(cts []*controlplane.Controller) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, ct := range cts {
		ct := ct
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				flow := pkt.FiveTuple{SrcIP: pkt.IP(10, 0, 1, byte(i%200)), DstIP: 9,
					SrcPort: 7, DstPort: 8, Proto: pkt.ProtoUDP}
				ct.SW.Inject(pkt.NewUDP(flow, 64), 1)
				// Yield so every member's pump makes progress inside a soak
				// window even on a single-CPU runner.
				if i%64 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	return func() { close(done); wg.Wait() }
}

// TestFleetUpgradeHealthyCommit rolls a healthy v2 across three replicas:
// canary first, then one member per wave, each soaking under live traffic
// with both health gates armed; every member commits and the unit's desired
// source advances to v2.
func TestFleetUpgradeHealthyCommit(t *testing.T) {
	f, cts := testFleet(t, 3, Options{Replicas: 3})
	if _, err := f.Deploy(ctx, counterSrc, 0); err != nil {
		t.Fatal(err)
	}
	stop := pumpTraffic(cts)
	res, err := f.Upgrade(ctx, "counter", counterV2Src, UpgradeOptions{
		Soak: 40 * time.Millisecond, MaxDropRate: 0.5, MinV2PPS: 1,
	})
	stop()
	if err != nil {
		t.Fatalf("Upgrade: %v", err)
	}
	if res.RolledBack || len(res.Pinned) != 0 {
		t.Fatalf("healthy rollout degraded: %+v", res)
	}
	if len(res.Committed) != 3 || res.Waves != 3 {
		t.Fatalf("committed=%v waves=%d, want 3 members in 3 waves", res.Committed, res.Waves)
	}
	u, ok := f.store.Resolve("counter")
	if !ok || u.Source != counterV2Src {
		t.Fatal("unit source did not advance to v2")
	}
	for i, ct := range cts {
		st, err := ct.UpgradeStatus("counter")
		if err != nil || st.State != "committed" {
			t.Fatalf("member %d: session %+v, %v", i, st, err)
		}
		if progs := ct.Programs(); len(progs) != 1 || progs[0].Name != "counter" {
			t.Fatalf("member %d programs = %+v", i, progs)
		}
	}
}

// TestFleetUpgradeRollbackOnDrops deploys a v2 that drops all traffic: the
// canary's soak window blows the drop-rate gate and every member — cut over
// or merely prepared — rolls back to v1 together.
func TestFleetUpgradeRollbackOnDrops(t *testing.T) {
	f, cts := testFleet(t, 3, Options{Replicas: 3})
	if _, err := f.Deploy(ctx, counterSrc, 0); err != nil {
		t.Fatal(err)
	}
	stop := pumpTraffic(cts)
	res, err := f.Upgrade(ctx, "counter", counterV2BadSrc, UpgradeOptions{
		Soak: 40 * time.Millisecond, MaxDropRate: 0.2,
	})
	stop()
	if err != nil {
		t.Fatalf("Upgrade (rollback is not an error): %v", err)
	}
	if !res.RolledBack || !strings.Contains(res.Reason, "drop rate") {
		t.Fatalf("result = %+v, want drop-rate rollback", res)
	}
	if len(res.Committed) != 0 || res.Waves != 1 {
		t.Fatalf("committed=%v waves=%d, want none committed after canary wave", res.Committed, res.Waves)
	}
	u, _ := f.store.Resolve("counter")
	if u.Source != counterSrc {
		t.Fatal("unit source advanced despite rollback")
	}
	for i, ct := range cts {
		st, err := ct.UpgradeStatus("counter")
		if err != nil || st.State != "aborted" || st.ActiveVersion != 1 {
			t.Fatalf("member %d: session %+v, %v (want aborted on v1)", i, st, err)
		}
		if _, linked := ct.Compiler.Linked("counter@v2"); linked {
			t.Fatalf("member %d: v2 still resident after rollback", i)
		}
	}
	// v1 still serves on every member.
	flow := pkt.FiveTuple{SrcIP: pkt.IP(10, 0, 9, 9), DstIP: 9, SrcPort: 7, DstPort: 8, Proto: pkt.ProtoUDP}
	for i, ct := range cts {
		before := ctMemSum(t, ct)
		ct.SW.Inject(pkt.NewUDP(flow, 64), 1)
		if ctMemSum(t, ct)-before != 1 {
			t.Fatalf("member %d not serving v1 after rollback", i)
		}
	}
}

func ctMemSum(t *testing.T, ct *controlplane.Controller) uint64 {
	t.Helper()
	vals, err := ct.ReadMemoryRange("counter", "m", 0, 256)
	if err != nil {
		t.Fatal(err)
	}
	var s uint64
	for _, v := range vals {
		s += uint64(v)
	}
	return s
}

// noUpgradeBackend is a member that refuses to prepare an upgrade — the
// graceful-degradation case of a fleet mixing upgrade-capable and legacy
// members.
type noUpgradeBackend struct{ Member }

func (b noUpgradeBackend) Do(ctx context.Context, method string, params, result any, frames ...[]byte) ([][]byte, error) {
	if method == wire.MethodUpgradeStart {
		return nil, &wire.OpError{Method: method, Msg: `unknown method "upgrade.start"`}
	}
	return b.Member.Do(ctx, method, params, result, frames...)
}

// TestFleetUpgradePinsUnavailableMembers: a down member and a member that
// cannot upgrade are pinned to v1; the reachable members still commit.
// The pinned members keep v1 afterwards: reconciliation compares program
// names, not versions, so it does not catch them up.
func TestFleetUpgradePinsUnavailableMembers(t *testing.T) {
	f, cts := testFleet(t, 3, Options{Replicas: 4, DownAfter: 1})
	legacy := newLocalMember(t)
	if err := f.AddMember("m4", noUpgradeBackend{Local(legacy)}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Deploy(ctx, counterSrc, 0); err != nil {
		t.Fatal(err)
	}
	m3, ok := f.member("m3")
	if !ok {
		t.Fatal("no member m3")
	}
	f.noteFailure(m3, errors.New("unreachable"))
	if f.stateOf(m3) != Down {
		t.Fatal("m3 not down after DownAfter=1 failure")
	}

	res, err := f.Upgrade(ctx, "counter", counterV2Src, UpgradeOptions{Soak: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("Upgrade: %v", err)
	}
	if res.RolledBack {
		t.Fatalf("rolled back: %s", res.Reason)
	}
	if len(res.Committed) != 2 {
		t.Fatalf("committed = %v, want the two reachable upgrade-capable members", res.Committed)
	}
	pinned := map[string]bool{}
	for _, p := range res.Pinned {
		pinned[p] = true
	}
	if !pinned["m3"] || !pinned["m4"] || len(pinned) != 2 {
		t.Fatalf("pinned = %v, want [m3 m4]", res.Pinned)
	}
	u, _ := f.store.Resolve("counter")
	if u.Source != counterV2Src {
		t.Fatal("unit source did not advance to v2")
	}
	// The committed members run v2; the pinned ones still serve v1.
	for i, ct := range cts[:2] {
		st, err := ct.UpgradeStatus("counter")
		if err != nil || st.State != "committed" {
			t.Fatalf("member %d: session %+v, %v", i, st, err)
		}
	}
	if _, err := legacy.UpgradeStatus("counter"); err == nil {
		t.Fatal("legacy member unexpectedly has an upgrade session")
	}
	if progs := legacy.Programs(); len(progs) != 1 || progs[0].Name != "counter" {
		t.Fatalf("legacy member programs = %+v", progs)
	}
}
