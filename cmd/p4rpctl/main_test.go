package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/core"
	"p4runpro/internal/fleet"
	"p4runpro/internal/journal"
	"p4runpro/internal/obs/trace"
	"p4runpro/internal/rmt"
	"p4runpro/internal/telemetry"
	"p4runpro/internal/wire"
)

const counterSrc = `
@ m 256
program counter(<hdr.ipv4.src, 10.0.0.0, 0xff000000>) {
    LOADI(sar, 1);
    HASH_5_TUPLE_MEM(m);
    MEMADD(m);
}
`

// counterV2Src is counter's next version: it counts by two.
const counterV2Src = `
@ m 256
program counter(<hdr.ipv4.src, 10.0.0.0, 0xff000000>) {
    LOADI(sar, 2);
    HASH_5_TUPLE_MEM(m);
    MEMADD(m);
}
`

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

const caseSrc = `
case(<har, 1, 0xffffffff>, <sar, 0x9999, 0xffffffff>, <mar, 0, 0xffffffff>) {
    RETURN;
    LOADI(mar, 600);
    MEMREAD(mem1);
    MODIFY(hdr.nc.value, sar);
};`

// servers builds, in process, the two server shapes p4rpd runs: a
// single-switch server with a journal, tracer, flight recorder and
// telemetry verbs, and a fleet server over one such member.
func servers(t *testing.T) (single, fleetSrv *wire.Server) {
	t.Helper()
	tr := trace.New(trace.Options{})
	tr.SetEnabled(true)
	fr := trace.NewFlightRecorder(64)
	switchServer := func(ct *controlplane.Controller) *wire.Server {
		s := wire.NewServer(ct, nil)
		s.Tracer, s.Flight = tr, fr
		telemetry.RegisterWire(s, telemetry.New(ct, telemetry.Options{Interval: time.Hour}))
		return s
	}
	ct, err := controlplane.RecoverWithTracing(t.TempDir(), rmt.DefaultConfig(), core.DefaultOptions(),
		journal.Options{Sync: journal.SyncNone}, tr, fr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ct.Journal().Close() })
	member, err := controlplane.New(rmt.DefaultConfig(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	member.SetTracing(tr, fr)
	f := fleet.New(fleet.Options{Policy: fleet.ReplicateK{K: 1}})
	f.SetTracing(tr, fr)
	if err := f.AddMember("m1", switchServer(member)); err != nil {
		t.Fatal(err)
	}
	fleetSrv = fleet.NewWireServer(f, nil)
	fleetSrv.Tracer, fleetSrv.Flight = tr, fr
	return switchServer(ct), fleetSrv
}

// TestCommands runs every row of the command table against an in-process
// server: each must succeed and print something, and usage lists them all.
func TestCommands(t *testing.T) {
	single, fleetSrv := servers(t)
	dir := t.TempDir()
	file := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	v1, v2 := file("v1.p4rp", counterSrc), file("v2.p4rp", counterV2Src)
	cache, cases := file("cache.p4rp", cacheSrc), file("case.p4rp", caseSrc)

	ran := make(map[string]bool)
	exec := func(srv wire.Doer, line string) string {
		t.Helper()
		cmd, rest := lookup(strings.Fields(line))
		if cmd == nil || len(rest) < cmd.min {
			t.Fatalf("p4rpctl %s: no row accepts it", line)
		}
		var out bytes.Buffer
		if err := cmd.run(context.Background(), srv, rest, &out); err != nil {
			t.Fatalf("p4rpctl %s: %v", line, err)
		}
		if out.Len() == 0 {
			t.Fatalf("p4rpctl %s printed nothing", line)
		}
		ran[cmd.name] = true
		return out.String()
	}

	for _, line := range []string{"deploy " + v1, "deploy " + cache, "list", "status", "util", "memwrite counter m 5 42",
		"mcast 5 1 2 3", "snapshot", "metrics", "metrics json", "top", "trace", "trace counter 5",
		"ops", "ops --slow --verb ct.deploy 3", "ops --flightrec"} {
		exec(single, line)
	}
	if got := exec(single, "memread counter m 5 2"); !strings.HasPrefix(got, "m[5] = 42 (0x2a)\nm[6] = 0") {
		t.Errorf("memread printed %q", got)
	}
	added := regexp.MustCompile(`branches \[(\d+)\]`).FindStringSubmatch(exec(single, "addcase cache 4 "+cases))
	if added == nil {
		t.Fatal("addcase printed no branch id")
	}
	exec(single, "removecase cache "+added[1])
	recent, err := wire.Call[wire.OpsResult](context.Background(), single, wire.MethodDebugOps, wire.OpsParams{Limit: 1})
	if err != nil || len(recent.Traces) == 0 {
		t.Fatalf("debug.ops = %d traces, %v", len(recent.Traces), err)
	}
	exec(single, "ops --trace "+recent.Traces[0].ID)
	for _, line := range []string{"upgrade start counter " + v2, "upgrade status counter",
		"upgrade cutover counter", "upgrade commit counter",
		"upgrade start counter " + v1, "upgrade abort counter", "revoke counter"} {
		exec(single, line)
	}

	for _, line := range []string{"fleet deploy " + v1, "fleet list", "fleet members", "fleet util",
		"fleet memread counter m 0 4 max", "fleet top", "fleet upgrade counter " + v2 + " 1 1",
		"ops --fleet", "fleet revoke counter"} {
		exec(fleetSrv, line)
	}

	var help bytes.Buffer
	usage(&help)
	for _, c := range commands {
		if !ran[c.name] {
			t.Errorf("row %q never ran", c.name)
		}
		if !strings.Contains(help.String(), "  "+c.name+" "+c.args) {
			t.Errorf("usage does not list %q", c.name)
		}
	}
}

// TestUsageBeforeDial: a command line no row accepts exits 2 without
// dialing. Nothing listens on the address, so a dial would exit 1.
func TestUsageBeforeDial(t *testing.T) {
	const refused = "127.0.0.1:1"
	for _, args := range [][]string{nil, {"frobnicate"}, {"deploy"}, {"upgrade"}, {"fleet", "memread", "counter", "m"}} {
		if got := run(refused, args); got != 2 {
			t.Errorf("p4rpctl %v: exit %d, want 2", args, got)
		}
	}
	if got := run(refused, []string{"status"}); got != 1 {
		t.Errorf("p4rpctl status with no daemon: exit %d, want 1", got)
	}
}

// docCommand matches a p4rpctl command line written in the docs: the
// binary, bare or as ./cmd/p4rpctl, and up to two words after it.
var docCommand = regexp.MustCompile("(?:^|[\\s`(]|\\./cmd/)p4rpctl ([a-z]+)(?: ([a-z]+))?")

// TestDocCommands: every p4rpctl command README.md and docs/*.md mention
// names a row of the command table.
func TestDocCommands(t *testing.T) {
	docs, err := filepath.Glob("../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	groups := make(map[string]bool) // first words of the two-word rows
	for _, c := range commands {
		if first, _, two := strings.Cut(c.name, " "); two {
			groups[first] = true
		}
	}
	n := 0
	for _, f := range append(docs, "../../README.md") {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range docCommand.FindAllStringSubmatch(string(body), -1) {
			n++
			if cmd, _ := lookup(m[1:]); cmd == nil && !(groups[m[1]] && m[2] == "") {
				t.Errorf("%s: `p4rpctl %s` names no command", filepath.Base(f), strings.TrimSpace(m[1]+" "+m[2]))
			}
		}
	}
	if n < 20 {
		t.Fatalf("found only %d p4rpctl commands in the docs; is the pattern stale?", n)
	}
}
