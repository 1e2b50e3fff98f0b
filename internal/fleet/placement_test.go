package fleet

import (
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"p4runpro/internal/resource"
	"p4runpro/internal/wire"
)

// deployCounter wraps a Member and counts the deploys it is sent.
type deployCounter struct {
	Member
	deploys atomic.Int64
}

func (d *deployCounter) Do(ctx context.Context, method string, params, result any, frames ...[]byte) ([][]byte, error) {
	if method == wire.MethodDeploy || method == wire.MethodDeployBatch {
		d.deploys.Add(1)
	}
	return d.Member.Do(ctx, method, params, result, frames...)
}

// memSrc is a counter program named name over a words-word memory.
func memSrc(name string, octet, words int) string {
	return fmt.Sprintf(`
@ m %d
program %s(<hdr.ipv4.src, 10.%d.0.0, 0xffff0000>) {
    LOADI(sar, 1);
    HASH_5_TUPLE_MEM(m);
    MEMADD(m);
}
`, words, name, octet)
}

// TestPlacementSkipsFragmentedMember: m1 keeps half its memory free, but
// in 32,768-word holes, one per RPB, so its aggregate headroom covers a
// 65,536-word program that no RPB of it can hold. m2 already holds a fleet
// unit, so the rank puts m1 (no unit) first. The fleet must learn from
// m1's own plan that the unit does not link there: no deploy reaches m1,
// the unit lands on m2, and once an empty m3 joins, one reconcile pass
// tops the unit up onto it.
func TestPlacementSkipsFragmentedMember(t *testing.T) {
	f := New(Options{Replicas: 2})
	ct1, ct2, ct3 := newLocalMember(t), newLocalMember(t), newLocalMember(t)
	m1 := &deployCounter{Member: Local(ct1)}
	if err := f.AddMember("m2", Local(ct2)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Deploy(ctx, memSrc("small", 201, 256), 1); err != nil {
		t.Fatal(err)
	}
	if err := f.AddMember("m1", m1); err != nil {
		t.Fatal(err)
	}

	// Fill m1 with half-RPB programs until it refuses, then free one per RPB.
	const half = 32768
	var names []string
	for i := 0; ; i++ {
		name := fmt.Sprintf("fill%d", i)
		if _, err := ct1.Deploy(memSrc(name, i, half)); err != nil {
			break
		}
		names = append(names, name)
	}
	freed := make(map[resource.RPBID]bool)
	for _, name := range names {
		lp, _ := ct1.Compiler.Linked(name)
		rpb := lp.Blocks()["m"].RPB
		if freed[rpb] {
			continue
		}
		freed[rpb] = true
		if _, err := ct1.Revoke(name); err != nil {
			t.Fatal(err)
		}
	}
	var free, biggest uint32
	for _, u := range ct1.Utilization() {
		free += u.MemFree
		biggest = max(biggest, u.MaxBlock)
	}
	if biggest != half || free < 2*half {
		t.Fatalf("m1 not fragmented as intended: %d words free, largest hole %d", free, biggest)
	}
	f.refreshUtil(ctx, []string{"m1"})
	if got := rank(f.liveViews()); got[0] != "m1" {
		t.Fatalf("rank = %v, want the fragmented m1 first", got)
	}

	big := memSrc("big", 200, 2*half)
	res, err := f.Deploy(ctx, big, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := m1.deploys.Load(); n != 0 {
		t.Errorf("Deploy sent %d deploys to the fragmented m1", n)
	}
	if got := res[0].Members; !reflect.DeepEqual(got, []string{"m2"}) {
		t.Fatalf("unit placed on %v, want [m2]", got)
	}

	if err := f.AddMember("m3", Local(ct3)); err != nil {
		t.Fatal(err)
	}
	f.Reconcile()
	u, _ := f.Store().Resolve("big")
	if !reflect.DeepEqual(u.Members, []string{"m2", "m3"}) {
		t.Errorf("after one reconcile the unit is on %v, want [m2 m3]", u.Members)
	}
	if n := m1.deploys.Load(); n != 0 {
		t.Errorf("reconcile sent %d deploys to the fragmented m1", n)
	}
}

// deployRefuser plans like its member but refuses every deploy, as a
// member whose state changed between plan and deploy would.
type deployRefuser struct {
	Member
	deploys atomic.Int64
}

func (d *deployRefuser) Do(ctx context.Context, method string, params, result any, frames ...[]byte) ([][]byte, error) {
	if method == wire.MethodDeploy {
		d.deploys.Add(1)
		return nil, errFlaky
	}
	return d.Member.Do(ctx, method, params, result, frames...)
}

// TestDeployFallsBackAfterRefusedDeploy: m1 ranks first and accepts the
// plan but refuses the deploy; its slot goes to the next ranked member, so
// a single-replica deploy lands on m2 instead of failing.
func TestDeployFallsBackAfterRefusedDeploy(t *testing.T) {
	f := New(Options{})
	m1 := &deployRefuser{Member: Local(newLocalMember(t))}
	if err := f.AddMember("m1", m1); err != nil {
		t.Fatal(err)
	}
	if err := f.AddMember("m2", Local(newLocalMember(t))); err != nil {
		t.Fatal(err)
	}
	res, err := f.Deploy(ctx, counterSrc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n := m1.deploys.Load(); n != 1 {
		t.Errorf("m1 was sent %d deploys, want the 1 it refused", n)
	}
	if got := res[0].Members; !reflect.DeepEqual(got, []string{"m2"}) {
		t.Fatalf("unit placed on %v, want [m2]", got)
	}
	if res[0].Entries != 9 || res[0].MemWords != 256 {
		t.Errorf("unit footprint %d entries %d words, want 9 and 256", res[0].Entries, res[0].MemWords)
	}
}
