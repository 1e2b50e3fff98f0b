// In-network aggregation (SwitchML-style): the paper's §7 notes that simple
// aggregation "requires only modifying P4runpro to support multicast" —
// this reproduction adds the MULTICAST primitive, and this example runs a
// gradient all-reduce round: four workers each contribute a value per
// chunk; the switch sums contributions in stateful memory, consumes the
// first three packets, and multicasts the packet carrying the final sum
// back to all worker ports.
package main

import (
	"context"
	"fmt"
	"log"

	"p4runpro"
	"p4runpro/internal/pkt"
	"p4runpro/internal/programs"
	"p4runpro/internal/rmt"
)

const (
	workers    = 4
	mcastGroup = 7
	chunks     = 8
)

func main() {
	ctx := context.Background()
	ct, err := p4runpro.Open(p4runpro.DefaultConfig(), p4runpro.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	// Worker i listens behind port 10+i.
	ports := make([]int, workers)
	for i := range ports {
		ports[i] = 10 + i
	}
	ct.SetMulticastGroup(ctx, mcastGroup, ports)

	src := programs.AggSource("agg", workers, mcastGroup, programs.Params{MemWords: 256})
	reports, err := ct.Deploy(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aggregation program linked: %d entries in %v\n",
		reports[0].Entries, reports[0].Total)

	// One all-reduce round: worker w contributes (w+1)*100 + chunk.
	var multicasts int
	for chunk := uint32(0); chunk < chunks; chunk++ {
		for w := 0; w < workers; w++ {
			flow := pkt.FiveTuple{
				SrcIP: pkt.IP(10, 4, 0, byte(w+1)), DstIP: pkt.IP(10, 4, 0, 100),
				SrcPort: uint16(7000 + w), DstPort: pkt.PortNetCache, Proto: pkt.ProtoUDP,
			}
			grad := uint32(w+1)*100 + chunk
			p := pkt.NewNC(flow, 0, uint64(chunk), grad)
			res := ct.SW.Inject(p, 10+w)
			if w < workers-1 {
				if res.Verdict != rmt.VerdictDropped {
					log.Fatalf("chunk %d worker %d: %v, want consumed", chunk, w, res.Verdict)
				}
				continue
			}
			// The last contribution triggers the broadcast.
			if res.Verdict != rmt.VerdictMulticast {
				log.Fatalf("chunk %d final: %v, want multicast", chunk, res.Verdict)
			}
			multicasts++
			want := uint32(100+200+300+400) + 4*chunk
			fmt.Printf("chunk %d: aggregate %d (want %d) broadcast to ports %v\n",
				chunk, p.NC.Value, want, res.OutPorts)
			if p.NC.Value != want {
				log.Fatalf("wrong aggregate")
			}
		}
	}

	// Every worker port received one result per chunk.
	for _, port := range ports {
		st := ct.SW.PortStats(port)
		if st.TxPackets != chunks {
			log.Fatalf("port %d received %d results, want %d", port, st.TxPackets, chunks)
		}
	}
	fmt.Printf("round complete: %d chunks aggregated, results fanned out to %d workers\n", multicasts, workers)

	// Between rounds the control plane resets the pools.
	for i := uint32(0); i < chunks; i++ {
		if err := ct.WriteMemory(ctx, "agg", "agg_sum", i, 0); err != nil {
			log.Fatal(err)
		}
		if err := ct.WriteMemory(ctx, "agg", "agg_cnt", i, 0); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("pools reset for the next round")
}
