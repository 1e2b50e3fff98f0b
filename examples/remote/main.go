// Remote control: run the switch daemon and a client in one process,
// exercising the TCP control protocol end to end — deploy over the wire,
// inject a frame through the RPC test hook, read program memory remotely,
// and revoke. This mirrors the operator workflow against cmd/p4rpd.
package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"log"

	"p4runpro"
	"p4runpro/internal/pkt"
	"p4runpro/internal/wire"
)

const calcSrc = `
program calc(<hdr.udp.dst_port, 9998, 0xffff>) {
    EXTRACT(hdr.calc.op, har);
    EXTRACT(hdr.calc.a, sar);
    EXTRACT(hdr.calc.b, mar);
    BRANCH:
    case(<har, 1, 0xffffffff>) {
        ADD(sar, mar);
        MODIFY(hdr.calc.res, sar);
        RETURN;
    };
    DROP;
}
`

func main() {
	ct, err := p4runpro.Open(p4runpro.DefaultConfig(), p4runpro.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	srv, addr, err := p4runpro.Serve(ct, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("daemon listening on %s\n", addr)

	client, err := p4runpro.Connect(addr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	results, err := client.Deploy(calcSrc)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("deployed over the wire: %s (id %d, %d entries)\n",
		results[0].Program, results[0].ProgramID, results[0].Entries)

	// Build an ADD(19, 23) calculator packet and inject it via RPC.
	flow := pkt.FiveTuple{
		SrcIP: pkt.IP(192, 0, 2, 1), DstIP: pkt.IP(192, 0, 2, 2),
		SrcPort: 1234, DstPort: pkt.PortCalculator, Proto: pkt.ProtoUDP,
	}
	frame := pkt.NewCalc(flow, pkt.CalcAdd, 19, 23).Marshal()
	ctx := context.Background()
	res, err := wire.Call[wire.InjectResult](ctx, client, wire.MethodInject,
		wire.InjectParams{FrameHex: hex.EncodeToString(frame), Port: 7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("inject: verdict=%s out=%d passes=%d\n", res.Verdict, res.OutPort, res.Passes)

	// Parse the returned frame to read the computed result.
	out, err := hex.DecodeString(res.FrameHex)
	if err != nil {
		log.Fatal(err)
	}
	reply, err := pkt.Parse(out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("calculator says 19 + 23 = %d\n", reply.Calc.Result)

	progs, err := wire.Call[[]wire.ProgramInfo](ctx, client, wire.MethodPrograms, nil)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range progs {
		fmt.Printf("remote program: %s id=%d depths=%d entries=%d\n", p.Name, p.ProgramID, p.Depths, p.Entries)
	}

	if _, err := client.Revoke("calc"); err != nil {
		log.Fatal(err)
	}
	status, _ := client.Status()
	fmt.Println(status)
}
