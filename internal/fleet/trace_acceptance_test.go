// Acceptance: one fleet deploy over real TCP yields ONE distributed trace
// whose span tree stitches every layer — client flush, fleet server
// decode, per-member fan-out, each member's journal commit and control-
// plane apply — across four separate tracer stores (client, fleet
// aggregator, and each member daemon), merged by trace ID.
package fleet

import (
	"testing"
	"time"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/core"
	"p4runpro/internal/journal"
	"p4runpro/internal/obs/trace"
	"p4runpro/internal/rmt"
	"p4runpro/internal/wire"
)

func newEnabledTracer() *trace.Tracer {
	tr := trace.New(trace.Options{})
	tr.SetEnabled(true)
	return tr
}

func TestDistributedTraceAcrossFleetTCP(t *testing.T) {
	fleetTr := newEnabledTracer()
	flight := trace.NewFlightRecorder(0)
	f := New(Options{Policy: ReplicateK{K: 3}})
	f.SetTracing(fleetTr, flight)

	// Three journaled member daemons on real sockets, each with its own
	// tracer — nothing is shared in-process, so every hop below must
	// travel as a wire trace header or the trace falls apart.
	memberTrs := make([]*trace.Tracer, 3)
	memberCs := make([]*wire.Client, 3)
	for i := 0; i < 3; i++ {
		mtr := newEnabledTracer()
		memberTrs[i] = mtr
		ct, err := controlplane.RecoverWithTracing(t.TempDir(), rmt.DefaultConfig(),
			core.DefaultOptions(), journal.Options{}, mtr, nil)
		if err != nil {
			t.Fatal(err)
		}
		memberCs[i] = listenAndDial(t, Local(ct))
		if err := f.AddMember(memberName(i), memberCs[i]); err != nil {
			t.Fatal(err)
		}
	}

	// The fleet itself is served over TCP too; the client dials it with
	// its own tracer, as p4rpctl would.
	fsrv := NewWireServer(f, nil)
	fsrv.Tracer, fsrv.Flight = fleetTr, flight
	faddr, err := fsrv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fsrv.Close() })
	cliTr := newEnabledTracer()
	c, err := wire.Dial(faddr, wire.WithTracer(cliTr), wire.WithCallTimeout(10*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	res, err := wire.Call[[]wire.FleetDeployResult](ctx, c, wire.MethodFleetDeploy, wire.FleetDeployParams{Source: counterSrc, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Members) != 3 {
		t.Fatalf("deploy result = %+v, want one unit on 3 members", res)
	}

	// Stitch: the client's root trace plus the same-ID halves recorded by
	// the fleet aggregator and each member daemon.
	cliSnaps := cliTr.Recent(0)
	if len(cliSnaps) != 1 || cliSnaps[0].Verb != "cli.fleet.deploy" {
		verbs := make([]string, len(cliSnaps))
		for i, ts := range cliSnaps {
			verbs[i] = ts.Verb
		}
		t.Fatalf("client traces = %v, want one cli.fleet.deploy", verbs)
	}
	id := cliSnaps[0].ID
	parts := []trace.TraceSnap{cliSnaps[0]}
	fts, ok := fleetTr.Lookup(id)
	if !ok {
		t.Fatalf("fleet daemon did not join trace %s", id)
	}
	parts = append(parts, fts)
	for i, mtr := range memberTrs {
		mts, ok := mtr.Lookup(id)
		if !ok {
			t.Fatalf("member %s did not join trace %s", memberName(i), id)
		}
		if !mts.Remote {
			t.Fatalf("member %s trace not marked remote", memberName(i))
		}
		parts = append(parts, mts)
	}
	merged := trace.MergeSnaps(parts)
	if merged.ID != id {
		t.Fatalf("merged trace ID = %s, want %s", merged.ID, id)
	}

	count := make(map[string]int)
	for _, sp := range merged.Spans {
		count[sp.Name]++
	}
	for _, want := range []string{
		"cli.fleet.deploy", // client root
		"wire.flush",       // client burst write
		"srv.fleet.deploy", // fleet server half
		"srv.decode",       // fleet server request decode
		"footprint",        // fleet placement estimate
		"cli.deploy",       // fleet→member client call
		"srv.deploy",       // member server half
		"journal.commit",   // member WAL group commit
		"apply",            // member controlplane apply
		"link",             // compiler phase tree nests under apply
	} {
		if count[want] == 0 {
			t.Fatalf("merged trace missing span %q (have %v)", want, count)
		}
	}
	for i := 0; i < 3; i++ {
		if n := count["fanout."+memberName(i)]; n != 1 {
			t.Fatalf("fanout.%s spans = %d, want exactly 1", memberName(i), n)
		}
	}
	// Per-member halves arrived over the wire: one srv.deploy (and one
	// journaled apply) per member.
	if count["srv.deploy"] != 3 || count["journal.commit"] != 3 || count["apply"] != 3 {
		t.Fatalf("per-member spans = srv.deploy:%d journal.commit:%d apply:%d, want 3 each",
			count["srv.deploy"], count["journal.commit"], count["apply"])
	}

	// The flight recorder correlates the operation to the same trace.
	var deployEv *trace.Event
	for _, ev := range flight.Events() {
		if ev.Kind == trace.EvDeploy {
			ev := ev
			deployEv = &ev
		}
	}
	if deployEv == nil {
		t.Fatal("no deploy event in the flight recorder")
	}
	if deployEv.Trace != id {
		t.Fatalf("flight event trace = %s, want %s", deployEv.Trace, id)
	}

	// The fleet-merged listing fetches member halves by trace ID: an
	// untraced request that leaves m1's newest trace unrelated to the
	// deploy must not cost the deploy m1's half.
	if _, err := wire.Call[string](ctx, memberCs[0], wire.MethodStatus, nil); err != nil {
		t.Fatal(err)
	}
	ops := f.Ops(ctx, wire.OpsParams{Limit: 1})
	if len(ops.Traces) != 1 || ops.Traces[0].ID != id.String() {
		t.Fatalf("fleet ops = %d traces, want the deploy trace %s", len(ops.Traces), id)
	}
	count = make(map[string]int)
	for _, sp := range ops.Traces[0].Spans {
		count[sp.Name]++
	}
	if count["srv.deploy"] != 3 || count["apply"] != 3 {
		t.Fatalf("fleet ops tree = srv.deploy:%d apply:%d, want 3 each (have %v)",
			count["srv.deploy"], count["apply"], count)
	}

	// A traced rollout carries its trace to every member's upgrade verbs.
	upgrade := wire.FleetUpgradeParams{Name: "counter", Source: counterV2Src, SoakMs: 1, StageSize: 3}
	if _, err := wire.Call[wire.FleetUpgradeResult](ctx, c, wire.MethodFleetUpgrade, upgrade); err != nil {
		t.Fatal(err)
	}
	upg := cliTr.Recent(1)
	if len(upg) != 1 || upg[0].Verb != "cli.fleet.upgrade" {
		t.Fatalf("client traces after upgrade = %+v, want cli.fleet.upgrade", upg)
	}
	for i, mtr := range memberTrs {
		mts, ok := mtr.Lookup(upg[0].ID)
		if !ok {
			t.Fatalf("member %s did not join upgrade trace %s", memberName(i), upg[0].ID)
		}
		found := false
		for _, sp := range mts.Spans {
			found = found || sp.Name == "srv.upgrade.start"
		}
		if !found {
			t.Fatalf("member %s upgrade trace has no srv.upgrade.start span", memberName(i))
		}
	}
}
