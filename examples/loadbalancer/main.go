// Stateless load balancer: link the lb program at runtime, populate its DIP
// and egress-port pools through control-plane memory writes, and watch VIP
// traffic split across two servers with rewritten destinations.
package main

import (
	"context"
	"fmt"
	"log"

	"p4runpro"
	"p4runpro/internal/pkt"
	"p4runpro/internal/programs"
	"p4runpro/internal/rmt"
	"p4runpro/internal/traffic"
)

func main() {
	ctx := context.Background()
	ct, err := p4runpro.Open(p4runpro.DefaultConfig(), p4runpro.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	spec, _ := programs.Get("lb")
	const buckets = 256
	if _, err := ct.Deploy(spec.Source("lb", programs.Params{MemWords: buckets, Elastic: 2})); err != nil {
		log.Fatal(err)
	}

	// Two backends: DIP 10.8.0.1 behind port 0, DIP 10.8.0.2 behind port 1.
	dips := []uint32{pkt.IP(10, 8, 0, 1), pkt.IP(10, 8, 0, 2)}
	for i := uint32(0); i < buckets; i++ {
		if err := ct.WriteMemory(ctx, "lb", "dip_pool", i, dips[i%2]); err != nil {
			log.Fatal(err)
		}
		if err := ct.WriteMemory(ctx, "lb", "port_pool", i, i%2); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("lb linked with %d buckets over 2 backends\n", buckets)

	cfg := traffic.DefaultConfig()
	cfg.DurationMs = 5000
	cfg.DstPrefix = [2]byte{10, 0} // the VIP range lb filters on
	cfg.HeavyFlows = 0
	tr := traffic.Generate(cfg)
	res := traffic.Replay(tr, ct.SW, nil, 50)

	var port0, port1 float64
	if s, ok := res.PerPort[0]; ok {
		port0 = s.Mean(0, 5000)
	}
	if s, ok := res.PerPort[1]; ok {
		port1 = s.Mean(0, 5000)
	}
	fmt.Printf("replayed %d packets (%d flows)\n", res.Packets, len(tr.Counts))
	fmt.Printf("backend rates: port0 %.1f Mbps, port1 %.1f Mbps\n", port0, port1)
	fmt.Printf("load imbalance |p0-p1|/total: %.3f\n", abs(port0-port1)/(port0+port1))
	fmt.Printf("verdicts: %d forwarded, %d unmatched\n",
		res.Verdicts[rmt.VerdictForwarded], res.Verdicts[rmt.VerdictNoDecision])
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
