package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p4runpro/internal/wire"
)

// dropProxy stands between a client and a member's wire server. It
// forwards requests and responses, except that once armed with a method
// it forwards that method's next request, waits for the server's response
// (so the call has run) and then closes the client's connection without
// passing the response on. It carries only exchanges without binary
// frames, which covers every verb the tests below send.
type dropProxy struct {
	ln     net.Listener
	target string

	mu   sync.Mutex
	drop string
}

func startDropProxy(t *testing.T, target string) *dropProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &dropProxy{ln: ln, target: target}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			cc, err := ln.Accept()
			if err != nil {
				return
			}
			go p.pipe(cc)
		}
	}()
	return p
}

// arm makes the next request for method lose its response.
func (p *dropProxy) arm(method string) {
	p.mu.Lock()
	p.drop = method
	p.mu.Unlock()
}

// take reports whether method's response is to be lost, disarming.
func (p *dropProxy) take(method string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.drop != method {
		return false
	}
	p.drop = ""
	return true
}

func (p *dropProxy) pipe(cc net.Conn) {
	defer cc.Close()
	sc, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer sc.Close()
	crd, srd := bufio.NewReader(cc), bufio.NewReader(sc)
	for {
		line, err := crd.ReadBytes('\n')
		if err != nil {
			return
		}
		var req wire.Request
		if err := json.Unmarshal(line, &req); err != nil {
			return
		}
		if _, err := sc.Write(line); err != nil {
			return
		}
		resp, err := srd.ReadBytes('\n')
		if err != nil || p.take(req.Method) {
			return
		}
		if _, err := cc.Write(resp); err != nil {
			return
		}
	}
}

// TestLostResponseAppliedOnce sends each mutating verb through a
// DialMember client whose response is lost after the member applied it.
// The caller must see a transport error, and the member must hold the
// effect of exactly one call: the same state as a reference member that
// got each call once.
func TestLostResponseAppliedOnce(t *testing.T) {
	srv := Local(newLocalMember(t))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	proxy := startDropProxy(t, addr)
	lossy, err := DialMember(proxy.ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lossy.Close() })
	ref := Local(newLocalMember(t))

	steps := []struct {
		method string
		params any
		lose   bool
	}{
		{wire.MethodDeploy, wire.DeployParams{Source: counterSrc}, true},
		{wire.MethodDeploy, wire.DeployParams{Source: cacheSrc}, false},
		{wire.MethodAddCases, wire.AddCasesParams{Program: "cache", BranchDepth: 4, Source: cacheCaseSrc}, true},
		{wire.MethodUpgradeStart, wire.UpgradeStartParams{Program: "counter", Source: counterV2Src}, false},
		{wire.MethodUpgradeCutover, wire.UpgradeCutoverParams{Program: "counter", Version: 2}, true},
		{wire.MethodRevoke, wire.RevokeParams{Name: "cache"}, true},
	}
	for _, st := range steps {
		if _, err := ref.Do(ctx, st.method, st.params, nil); err != nil {
			t.Fatalf("reference %s: %v", st.method, err)
		}
		if st.lose {
			proxy.arm(st.method)
		}
		_, err := lossy.Do(ctx, st.method, st.params, nil)
		var oe *wire.OpError
		switch {
		case !st.lose && err != nil:
			t.Fatalf("%s: %v", st.method, err)
		case st.lose && (err == nil || errors.As(err, &oe)):
			t.Fatalf("%s with its response lost: err = %v, want a transport error", st.method, err)
		}
		want, err := wire.Call[[]wire.ProgramInfo](ctx, ref, wire.MethodPrograms, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wire.Call[[]wire.ProgramInfo](ctx, lossy, wire.MethodPrograms, nil)
		if err != nil {
			t.Fatalf("programs after %s: %v", st.method, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after %s (lost=%v) programs = %+v, want %+v", st.method, st.lose, got, want)
		}
	}
	status := wire.UpgradeNameParams{Program: "counter"}
	want, err := wire.Call[wire.UpgradeStatusResult](ctx, ref, wire.MethodUpgradeStatus, status)
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.Call[wire.UpgradeStatusResult](ctx, lossy, wire.MethodUpgradeStatus, status)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != "cutover" || got.ActiveVersion != 2 || got.V1PID != want.V1PID || got.V2PID != want.V2PID {
		t.Fatalf("upgrade status = %+v, want %+v", got, want)
	}
}

// cacheSrc is a program with a case block, for the case-adding verb.
const cacheSrc = `
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
    };
    FORWARD(32);
}
`

const cacheCaseSrc = `
case(<har, 1, 0xffffffff>, <sar, 0x9999, 0xffffffff>, <mar, 0, 0xffffffff>) {
    RETURN;
    LOADI(mar, 600);
    MEMREAD(mem1);
    MODIFY(hdr.nc.value, sar);
};`

// lostReplyBackend is a member that applies the first call of one method
// and then reports io.EOF, as a connection that dropped before the
// response arrived.
type lostReplyBackend struct {
	Member
	method string
	lost   atomic.Int32
}

func (b *lostReplyBackend) Do(ctx context.Context, method string, params, result any, frames ...[]byte) ([][]byte, error) {
	out, err := b.Member.Do(ctx, method, params, result, frames...)
	if err == nil && method == b.method && b.lost.Add(1) == 1 {
		return nil, io.EOF
	}
	return out, err
}

// TestLostDeployReconciles: a member applies a fleet deploy whose response
// is lost. The fleet places the unit elsewhere, and one reconcile pass
// leaves the unit on exactly the members the store records.
func TestLostDeployReconciles(t *testing.T) {
	f := New(Options{Replicas: 1})
	lossy := &lostReplyBackend{Member: Local(newLocalMember(t)), method: wire.MethodDeploy}
	if err := f.AddMember("m1", lossy); err != nil {
		t.Fatal(err)
	}
	if err := f.AddMember("m2", Local(newLocalMember(t))); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Deploy(ctx, counterSrc, 0); err != nil {
		t.Fatal(err)
	}
	if lossy.lost.Load() == 0 {
		t.Fatal("the deploy never reached the lossy member")
	}
	f.Reconcile()
	u, ok := f.store.Resolve("counter")
	if !ok || len(u.Members) != 1 {
		t.Fatalf("unit = %+v, %v; want one member", u, ok)
	}
	for _, name := range []string{"m1", "m2"} {
		m, _ := f.member(name)
		infos, err := wire.Call[[]wire.ProgramInfo](ctx, m.b, wire.MethodPrograms, nil)
		if err != nil {
			t.Fatal(err)
		}
		if holds := len(infos) == 1 && infos[0].Name == "counter"; holds != u.hasMember(name) || len(infos) > 1 {
			t.Errorf("%s holds %+v; store members %v", name, infos, u.Members)
		}
	}
}

// TestLostPrepareAborted: a member whose upgrade.start response is lost is
// pinned, and its prepare is aborted, so no v2 session outlives the
// rollout and the next upgrade commits on it.
func TestLostPrepareAborted(t *testing.T) {
	f, cts := testFleet(t, 1, Options{Replicas: 2})
	ct := newLocalMember(t)
	if err := f.AddMember("m2", &lostReplyBackend{Member: Local(ct), method: wire.MethodUpgradeStart}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Deploy(ctx, counterSrc, 0); err != nil {
		t.Fatal(err)
	}
	opt := UpgradeOptions{Soak: time.Millisecond}
	res, err := f.Upgrade(ctx, "counter", counterV2Src, opt)
	if err != nil {
		t.Fatalf("Upgrade: %v", err)
	}
	if !reflect.DeepEqual(res.Pinned, []string{"m2"}) || !reflect.DeepEqual(res.Committed, []string{"m1"}) {
		t.Fatalf("first upgrade = %+v, want m1 committed and m2 pinned", res)
	}
	if st, err := ct.UpgradeStatus("counter"); err != nil || st.State != "aborted" {
		t.Fatalf("m2 session after lost prepare = %+v, %v; want aborted", st, err)
	}
	if _, linked := ct.Compiler.Linked("counter@v2"); linked {
		t.Fatal("m2 still holds v2 after the rollout")
	}
	if st, err := cts[0].UpgradeStatus("counter"); err != nil || st.State != "committed" {
		t.Fatalf("m1 session = %+v, %v", st, err)
	}
	res, err = f.Upgrade(ctx, "counter", counterV2Src, opt)
	if err != nil {
		t.Fatalf("second Upgrade: %v", err)
	}
	if len(res.Pinned) != 0 || len(res.Committed) != 2 {
		t.Fatalf("second upgrade = %+v, want both members committed", res)
	}
}

// TestLostCommitCountsAsCommitted: the only member's upgrade.commit
// applies and its response is lost. The member's session reads committed,
// so the rollout counts it as committed rather than reverting and pinning
// it, and the store advances to v2's source.
func TestLostCommitCountsAsCommitted(t *testing.T) {
	f := New(Options{})
	ct := newLocalMember(t)
	if err := f.AddMember("m1", &lostReplyBackend{Member: Local(ct), method: wire.MethodUpgradeCommit}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Deploy(ctx, counterSrc, 0); err != nil {
		t.Fatal(err)
	}
	res, err := f.Upgrade(ctx, "counter", counterV2Src, UpgradeOptions{Soak: time.Millisecond})
	if err != nil {
		t.Fatalf("Upgrade: %v", err)
	}
	if !reflect.DeepEqual(res.Committed, []string{"m1"}) || len(res.Pinned) != 0 {
		t.Fatalf("upgrade = %+v, want m1 committed and nothing pinned", res)
	}
	if st, err := ct.UpgradeStatus("counter"); err != nil || st.State != "committed" || st.ActiveVersion != 2 {
		t.Fatalf("m1 session = %+v, %v; want committed on v2", st, err)
	}
	if u, _ := f.Store().Resolve("counter"); u.Source != counterV2Src {
		t.Fatal("the store still holds v1's source")
	}
}
