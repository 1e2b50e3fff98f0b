package fleet

import (
	"strings"
	"sync"
	"testing"
	"time"

	"p4runpro/internal/wire"
)

// listenAndDial serves a member on an ephemeral port and returns a
// DialMember client to it; both close with t.
func listenAndDial(t *testing.T, s *wire.Server) *wire.Client {
	t.Helper()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c, err := DialMember(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// startWireMember runs one member daemon on an ephemeral port and returns
// its server and a fleet-tuned client.
func startWireMember(t *testing.T) (*wire.Server, *wire.Client) {
	t.Helper()
	s := Local(newLocalMember(t))
	return s, listenAndDial(t, s)
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestFleetFailoverOverWire is the acceptance scenario: a 3-member fleet
// of wire-connected daemons serves programs; one member's daemon dies;
// the health checker marks it down, the reconcile loop re-deploys its
// unit to the survivor — while a client hammers the fleet API and sees
// zero failed requests, and the obs counters record the failover.
func TestFleetFailoverOverWire(t *testing.T) {
	f := New(Options{
		Replicas:          2,
		ProbeInterval:     20 * time.Millisecond,
		ProbeTimeout:      200 * time.Millisecond,
		DownAfter:         2,
		ReconcileInterval: 40 * time.Millisecond,
	})
	servers := make([]*wire.Server, 3)
	for i := 0; i < 3; i++ {
		srv, c := startWireMember(t)
		servers[i] = srv
		if err := f.AddMember(memberName(i), c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Deploy(ctx, counterSrc, 0); err != nil {
		t.Fatal(err)
	}
	u, _ := f.store.Resolve("counter")
	if len(u.Members) != 2 {
		t.Fatalf("members = %v", u.Members)
	}
	f.Start()
	defer f.Stop()

	// Hammer the fleet API for the whole transition; every request must
	// succeed (fan-outs tolerate the dying replica while one survives).
	stop := make(chan struct{})
	var apiErrs []error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := f.MemRead(ctx, "counter", "m", 0, 16, ""); err != nil {
				apiErrs = append(apiErrs, err)
			}
			if got := f.Programs(ctx); len(got) != 1 {
				continue // listing converges; emptiness would be caught below
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Kill the first assigned member's daemon.
	victim := u.Members[0]
	for i := 0; i < 3; i++ {
		if memberName(i) == victim {
			servers[i].Close()
		}
	}
	waitFor(t, 10*time.Second, "victim marked down", func() bool {
		m, _ := f.member(victim)
		return f.stateOf(m) == Down
	})
	waitFor(t, 10*time.Second, "unit re-placed on survivors", func() bool {
		after, ok := f.store.Resolve("counter")
		return ok && len(after.Members) == 2 && !after.hasMember(victim)
	})
	close(stop)
	wg.Wait()
	for _, err := range apiErrs {
		t.Errorf("fleet API request failed during transition: %v", err)
	}

	after, _ := f.store.Resolve("counter")
	for _, name := range after.Members {
		m, _ := f.member(name)
		infos, err := wire.Call[[]wire.ProgramInfo](ctx, m.b, wire.MethodPrograms, nil)
		if err != nil || len(infos) != 1 || infos[0].Name != "counter" {
			t.Errorf("survivor %s listing = %+v, %v", name, infos, err)
		}
	}
	res, err := f.MemRead(ctx, "counter", "m", 0, 16, "")
	if err != nil || res.Replicas != 2 {
		t.Errorf("post-failover read = %+v, %v", res, err)
	}

	scrape := f.Obs.Prometheus()
	for _, want := range []string{
		`p4runpro_fleet_failovers_total 1`,
		`p4runpro_fleet_member_down_transitions_total 1`,
		`p4runpro_fleet_members{state="down"} 1`,
		`p4runpro_fleet_members{state="healthy"} 2`,
	} {
		if !strings.Contains(scrape, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestFleetServedOverWire drives a fleet daemon end to end through the
// fleet.* verbs: in-process members behind a bare wire server, a plain
// client deploying, listing, reading aggregated memory, and revoking.
func TestFleetServedOverWire(t *testing.T) {
	f := New(Options{Replicas: 2})
	for i := 0; i < 3; i++ {
		if err := f.AddMember(memberName(i), Local(newLocalMember(t))); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewWireServer(f, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	res, err := wire.Call[[]wire.FleetDeployResult](ctx, c, wire.MethodFleetDeploy, wire.FleetDeployParams{Source: counterSrc})
	if err != nil || len(res) != 1 || len(res[0].Members) != 2 {
		t.Fatalf("fleet deploy over wire = %+v, %v", res, err)
	}
	members, err := wire.Call[[]wire.FleetMemberInfo](ctx, c, wire.MethodFleetMembers, nil)
	if err != nil || len(members) != 3 {
		t.Fatalf("fleet members = %+v, %v", members, err)
	}
	for _, m := range members {
		if m.State != "healthy" {
			t.Errorf("member %s state = %s", m.Name, m.State)
		}
	}
	progs, err := wire.Call[[]wire.FleetProgramInfo](ctx, c, wire.MethodFleetPrograms, nil)
	if err != nil || len(progs) != 1 || progs[0].Replicas != 2 {
		t.Fatalf("fleet programs = %+v, %v", progs, err)
	}
	util, err := wire.Call[[]wire.FleetUtilRow](ctx, c, wire.MethodFleetUtilization, nil)
	if err != nil || len(util) != 3 {
		t.Fatalf("fleet utilization = %d rows, %v", len(util), err)
	}
	mem, err := wire.Call[wire.FleetMemReadResult](ctx, c, wire.MethodFleetMemRead, wire.FleetMemReadParams{Program: "counter", Mem: "m", Count: 8})
	if err != nil || mem.Replicas != 2 || len(mem.Values) != 8 {
		t.Fatalf("fleet memread = %+v, %v", mem, err)
	}
	status, err := c.Status()
	if err != nil || !strings.Contains(status, "3 members") {
		t.Fatalf("fleet status = %q, %v", status, err)
	}
	// Single-switch verbs are refused with a pointed error.
	if _, err := c.Deploy(counterSrc); err == nil || !strings.Contains(err.Error(), "fleet") {
		t.Errorf("bare server served deploy: %v", err)
	}
	// Metrics verb serves the fleet registry.
	scrape, err := wire.Call[wire.MetricsResult](ctx, c, wire.MethodMetrics, wire.MetricsParams{})
	if err != nil || !strings.Contains(scrape.Body, "p4runpro_fleet_members") {
		t.Fatalf("fleet metrics scrape: %v", err)
	}
	rev, err := wire.Call[wire.FleetRevokeResult](ctx, c, wire.MethodFleetRevoke, wire.FleetRevokeParams{Name: "counter"})
	if err != nil || len(rev.Members) != 2 {
		t.Fatalf("fleet revoke = %+v, %v", rev, err)
	}
	if progs, _ := wire.Call[[]wire.FleetProgramInfo](ctx, c, wire.MethodFleetPrograms, nil); len(progs) != 0 {
		t.Errorf("programs after revoke = %+v", progs)
	}
}
