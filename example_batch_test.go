package p4runpro_test

import (
	"fmt"

	"p4runpro"
	"p4runpro/internal/pkt"
)

// Example_injectBatch demonstrates batched injection: a burst of packets runs
// through the switch in one InjectBatch call, which fills each item's Res in
// place.
func Example_injectBatch() {
	ct, err := p4runpro.Open(p4runpro.DefaultConfig(), p4runpro.DefaultOptions())
	if err != nil {
		panic(err)
	}
	if _, err := ct.Deploy("program fwd(<hdr.ipv4.dst, 0, 0>) { FORWARD(2); }"); err != nil {
		panic(err)
	}

	flow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: pkt.ProtoUDP}
	batch := make([]p4runpro.BatchItem, 4)
	for i := range batch {
		batch[i] = p4runpro.BatchItem{Pkt: pkt.NewUDP(flow, 256), Port: 1}
	}
	ct.SW.InjectBatch(batch)

	for i, it := range batch {
		fmt.Printf("packet %d: %s out port %d\n", i, it.Res.Verdict, it.Res.OutPort)
	}
	// Output:
	// packet 0: forwarded out port 2
	// packet 1: forwarded out port 2
	// packet 2: forwarded out port 2
	// packet 3: forwarded out port 2
}
