package rmt

import (
	"fmt"
	"strconv"
	"testing"

	"p4runpro/internal/pkt"
)

// Init-block-shaped tables (internal/dataplane's init_<path>): eight ternary
// keys whose first one, the parse bitmap, is exact and equal in every entry.
// The workloads fill them with /24 source-prefix filters at priority 24 beside
// the probe program's /16 at priority 16, which owns 10.0/16.
const (
	initShapeKeys   = 8
	initShapeSrc    = 2 // key position of the IPv4 source address
	initShapeBitmap = 0x7
)

func newInitShaped(tb testing.TB, capacity int) *Table {
	tb.Helper()
	tbl := NewTable("init", Ingress, 0, capacity, initShapeKeys, nil)
	if err := tbl.RegisterAction("set", 1, func(*PHV, []uint32) {}); err != nil {
		tb.Fatal(err)
	}
	return tbl
}

// prefixKeys is an init-shaped filter matching a source prefix of the given
// length.
func prefixKeys(src uint32, bits int) []TernaryKey {
	k := make([]TernaryKey, initShapeKeys)
	k[0] = Exact(initShapeBitmap)
	k[initShapeSrc] = TernaryKey{Value: src, Mask: ^uint32(0) << (32 - bits)}
	return k
}

// background24 is background program i's /24, 10.(1+i/250).(i%250).0 — the
// benchmark harness's slot prefixes, none inside the probe's 10.0/16.
func background24(i int) uint32 { return 10<<24 | uint32(1+i/250)<<16 | uint32(i%250)<<8 }

// fillInitShaped installs the probe's /16 and n background /24s.
func fillInitShaped(tb testing.TB, tbl *Table, n int) {
	tb.Helper()
	if _, err := tbl.Insert(prefixKeys(10<<24, 16), 16, "set", nil, "probe"); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := tbl.Insert(prefixKeys(background24(i), 24), 24, "set", nil, "bg"); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkTableLookup matches packets of the probe's /16 against an
// init-shaped table holding the probe alone with three background /24s
// (sparse) and with 1,000 of them (dense1001, the switch_dense_churn fill).
func BenchmarkTableLookup(b *testing.B) {
	for _, bc := range []struct {
		name       string
		background int
	}{{"sparse", 3}, {"dense1001", 1000}} {
		b.Run(bc.name, func(b *testing.B) {
			tbl := newInitShaped(b, 2048)
			fillInitShaped(b, tbl, bc.background)
			probes := make([][]uint32, 64)
			for i := range probes {
				probes[i] = make([]uint32, initShapeKeys)
				probes[i][0] = initShapeBitmap
				probes[i][initShapeSrc] = 10<<24 | uint32(i*977)&0xffff
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if tbl.Lookup(probes[i&63]) == nil {
					b.Fatal("probe packet missed its /16")
				}
			}
		})
	}
}

// BenchmarkTableInsertDelete installs and deletes one /24 in an init-shaped
// table that is empty or holds 2,000 /24s (of 2,048 slots).
func BenchmarkTableInsertDelete(b *testing.B) {
	for _, bc := range []struct {
		name string
		fill int
	}{{"empty", 0}, {"full", 2000}} {
		b.Run(bc.name, func(b *testing.B) {
			tbl := newInitShaped(b, 2048)
			for i := 0; i < bc.fill; i++ {
				if _, err := tbl.Insert(prefixKeys(background24(i), 24), 24, "set", nil, "bg"); err != nil {
					b.Fatal(err)
				}
			}
			keys := prefixKeys(background24(bc.fill), 24)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := tbl.Insert(keys, 24, "set", nil, "churn")
				if err != nil {
					b.Fatal(err)
				}
				if err := tbl.Delete(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// burstSwitch is a switch shaped like the data plane's packet path, built
// without a controller: an init-shaped table holding the probe's /16 and
// 1,000 background /24s at ingress stage 0, then 28 one-entry wildcard tables
// over the remaining stages. A packet from the probe's /16 makes 29 lookups
// and 29 hits in one pass and is forwarded to port 2.
func burstSwitch(b *testing.B) *Switch {
	b.Helper()
	sw := New(DefaultConfig())
	keys := make([]string, initShapeKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		if err := sw.PHVLayout().Define(keys[i], 32); err != nil {
			b.Fatal(err)
		}
	}
	sw.SetParseHook(func(p *PHV) {
		p.Set(keys[0], initShapeBitmap)
		p.Set(keys[initShapeSrc], p.Packet.IP4.Src)
	})
	initTbl, err := sw.AddTable("init", Ingress, 0, 2048, initShapeKeys, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := initTbl.SetPHVKeyFields(sw.PHVLayout(), keys...); err != nil {
		b.Fatal(err)
	}
	if err := initTbl.RegisterAction("set", 1, func(p *PHV, _ []uint32) { p.Meta.EgressSpec = 2 }); err != nil {
		b.Fatal(err)
	}
	fillInitShaped(b, initTbl, 1000)
	stages := sw.Config().IngressStages + sw.Config().EgressStages
	for i := 1; i < 29; i++ {
		flat := 1 + (i-1)*(stages-1)/28
		g, st := Ingress, flat
		if flat >= sw.Config().IngressStages {
			g, st = Egress, flat-sw.Config().IngressStages
		}
		tbl, err := sw.AddTable(fmt.Sprintf("rpb%d", i), g, st, 16, 1, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := tbl.SetPHVKeyFields(sw.PHVLayout(), keys[1]); err != nil {
			b.Fatal(err)
		}
		if err := tbl.RegisterAction("nop", 1, func(*PHV, []uint32) {}); err != nil {
			b.Fatal(err)
		}
		if _, err := tbl.Insert([]TernaryKey{Wild()}, 0, "nop", nil, "probe"); err != nil {
			b.Fatal(err)
		}
	}
	return sw
}

// BenchmarkInjectBurst injects probe packets into burstSwitch in bursts of 1
// (what Inject and every fabric hop of a single packet pay) and of 64, so the
// fixed per-burst cost reads against the amortised one. ns/op is per packet.
func BenchmarkInjectBurst(b *testing.B) {
	for _, size := range []int{1, 64} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			sw := burstSwitch(b)
			pkts := make([]*pkt.Packet, 64)
			for i := range pkts {
				flow := pkt.FiveTuple{SrcIP: pkt.IP(10, 0, byte(i), 1), DstIP: 2, SrcPort: uint16(i), DstPort: 4, Proto: pkt.ProtoUDP}
				pkts[i] = pkt.NewUDP(flow, 256)
			}
			items := make([]BatchItem, size)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += size {
				for j := range items {
					items[j] = BatchItem{Pkt: pkts[(i+j)&63], Port: 1}
				}
				sw.InjectBatch(items)
			}
			b.StopTimer()
			m := sw.Metrics()
			if items[0].Res.Verdict != VerdictForwarded || m.Packets == 0 {
				b.Fatalf("verdict %v after %d packets", items[0].Res.Verdict, m.Packets)
			}
			var lookups uint64
			for _, l := range m.StageLookups {
				lookups += l
			}
			if lookups != 29*m.Packets {
				b.Fatalf("%d lookups for %d packets, want 29 each", lookups, m.Packets)
			}
		})
	}
}
