// In-network cache scenario: the NetCache-style workload of the paper's
// §6.4 case study. A cache program with 8 cached keys is linked at runtime;
// a client-side trace with a 0.6 hit rate is replayed; read hits reflect at
// the switch while misses travel to the server; hit statistics and cache
// memory are inspected through the control plane.
package main

import (
	"context"
	"fmt"
	"log"

	"p4runpro"
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

	// Base state: a forwarding program sends everything to the server.
	if _, err := ct.Deploy("program fwd(<hdr.ipv4.dst, 0, 0>) { FORWARD(32); }"); err != nil {
		log.Fatal(err)
	}

	// Link the cache with 8 keys (16 elastic case blocks).
	spec, _ := programs.Get("cache")
	src := spec.Source("cache", programs.Params{MemWords: 256, Elastic: 16})
	reports, err := ct.Deploy(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cache linked: %d entries in %v\n", reports[0].Entries, reports[0].Total)

	// The server writes values for the cached keys (through the data path,
	// as cache-write packets would).
	for i := uint32(0); i < 8; i++ {
		if err := ct.WriteMemory(ctx, "cache", "mem1", i, 1000+i); err != nil {
			log.Fatal(err)
		}
	}
	vals, err := ct.ReadMemoryRange("cache", "mem1", 0, 8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cache values via address translation: %v\n", vals)

	// Replay a 5-second client trace at 100 Mbps with hit rate 0.6.
	cfg := traffic.DefaultCacheConfig()
	cfg.DurationMs = 5000
	tr := traffic.GenerateCache(cfg)
	res := traffic.Replay(tr, ct.SW, nil, 50)

	reflected := res.Verdicts[rmt.VerdictReflected]
	forwarded := res.Verdicts[rmt.VerdictForwarded]
	dropped := res.Verdicts[rmt.VerdictDropped]
	total := res.Packets
	fmt.Printf("replayed %d packets: %d reflected (hits), %d to server (misses), %d writes consumed\n",
		total, reflected, forwarded, dropped)
	fmt.Printf("observed hit rate: %.3f (configured %.2f)\n",
		float64(reflected)/float64(reflected+forwarded), cfg.HitRate)
	fmt.Printf("server-side load: %.1f Mbps of %.1f offered\n",
		res.Forwarded.Mean(0, 5000), cfg.RateMbps)

	fmt.Println(ct.String())
}
