// Fleet demo: a sharded multi-switch deployment behind one controller.
// Three member daemons serve the wire protocol; the fleet controller
// places a replicated heavy-hitter counter on two of them, aggregates its
// memory across replicas, then loses a member — the health checker marks
// it down and the reconcile loop re-deploys the unit onto the survivor,
// with reads answering throughout the outage.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"p4runpro"
	"p4runpro/internal/fleet"
	"p4runpro/internal/pkt"
	"p4runpro/internal/wire"
)

const counterSrc = `
@ m 512
program counter(<hdr.ipv4.src, 10.0.0.0, 0xff000000>) {
    LOADI(sar, 1);
    HASH_5_TUPLE_MEM(m);
    MEMADD(m);
}
`

func main() {
	// Three member switches, each behind its own wire daemon — the same
	// topology as three p4rpd processes on three switch CPUs.
	f := fleet.New(fleet.Options{
		Policy:            fleet.ReplicateK{K: 2},
		ProbeInterval:     50 * time.Millisecond,
		ProbeTimeout:      time.Second,
		DownAfter:         2,
		ReconcileInterval: 100 * time.Millisecond,
	})
	servers := make(map[string]*wire.Server, 3)
	controllers := make(map[string]*p4runpro.Controller, 3)
	for i := 1; i <= 3; i++ {
		name := fmt.Sprintf("m%d", i)
		ct, err := p4runpro.Open(p4runpro.DefaultConfig(), p4runpro.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		srv := wire.NewServer(ct, nil)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		c, err := fleet.DialMember(addr)
		if err != nil {
			log.Fatal(err)
		}
		if err := f.AddMember(name, c); err != nil {
			log.Fatal(err)
		}
		servers[name] = srv
		controllers[name] = ct
		fmt.Printf("member %s up on %s\n", name, addr)
	}
	f.Start()
	defer f.Stop()
	ctx := context.Background()

	// Deploy the counter as a 2-replica unit; the spread placement picks
	// the two emptiest members.
	units, err := f.Deploy(ctx, counterSrc, 0)
	if err != nil {
		log.Fatal(err)
	}
	unit := units[0]
	fmt.Printf("\ndeployed unit %q on %v (%d entries, %d mem words per member)\n",
		unit.Unit, unit.Members, unit.Entries, unit.MemWords)

	// Each replica sees its own slice of the traffic — here, different
	// packet counts per member so the aggregate is visibly a sum.
	for i, name := range unit.Members {
		ct := controllers[name]
		for j := 0; j <= i*2; j++ {
			flow := pkt.FiveTuple{
				SrcIP: pkt.IP(10, 1, 0, byte(j+1)), DstIP: pkt.IP(10, 2, 0, 1),
				SrcPort: uint16(5000 + j), DstPort: 80, Proto: pkt.ProtoUDP,
			}
			ct.SW.Inject(pkt.NewUDP(flow, 128), 4)
		}
	}
	sum, _ := f.MemRead(ctx, "counter", "m", 0, 512, wire.FleetAggSum)
	fmt.Printf("fleet-wide packet count (sum over %d replicas): %d\n",
		sum.Replicas, total(sum.Values))

	// Kill the first replica's daemon mid-flight.
	victim := unit.Members[0]
	fmt.Printf("\nkilling member %s...\n", victim)
	servers[victim].Close()
	for {
		m := memberByName(f, victim)
		if m.State == "down" {
			break
		}
		// Reads keep working against the surviving replica meanwhile.
		if _, err := f.MemRead(ctx, "counter", "m", 0, 512, wire.FleetAggSum); err != nil {
			log.Fatalf("read failed during outage: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	fmt.Printf("health checker marked %s down\n", victim)
	for {
		progs := f.Programs(ctx)
		if len(progs) == 1 && progs[0].Replicas == 2 && !contains(progs[0].Members, victim) {
			fmt.Printf("reconciler re-placed the unit on %v\n", progs[0].Members)
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	fmt.Println("\nmember states after failover:")
	for _, m := range f.Members() {
		fmt.Printf("  %-4s %-8s programs=%d\n", m.Name, m.State, m.Programs)
	}
	fmt.Println("\nfailover counters:")
	for _, line := range strings.Split(f.Obs.Prometheus(), "\n") {
		if strings.HasPrefix(line, "p4runpro_fleet_failovers_total") ||
			strings.HasPrefix(line, "p4runpro_fleet_member_down_transitions_total") ||
			strings.HasPrefix(line, "p4runpro_fleet_reconcile_actions_total") {
			fmt.Println("  " + line)
		}
	}
}

func total(vals []uint32) (n uint64) {
	for _, v := range vals {
		n += uint64(v)
	}
	return
}

func memberByName(f *fleet.Fleet, name string) wire.FleetMemberInfo {
	for _, m := range f.Members() {
		if m.Name == name {
			return m
		}
	}
	return wire.FleetMemberInfo{}
}

func contains(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}
