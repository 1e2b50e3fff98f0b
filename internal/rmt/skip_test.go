package rmt

import (
	"testing"

	"p4runpro/internal/pkt"
)

// A table that cannot act on a packet is skipped at its turn: these tests pin
// what the skip must not change.

// TestSkipSeesEntryInsertedMidPass: a stage-0 action installs the first entry
// of a later stage's empty table while the packet is in its pass, the way a
// link publishes a program's RPB tables before its init entry. The packet
// reaches that stage after the insert, so it must hit the new entry: the
// emptiness check reads the table's snapshot at the table's turn, never a
// list of non-empty tables taken when the pass began. The batch case makes
// the mid-pass change one Table.Update (a delete plus an insert).
func TestSkipSeesEntryInsertedMidPass(t *testing.T) {
	// run builds a switch whose first table's action changes the later
	// table once, mid-pass, and injects one packet through it. seed gives
	// the later table one entry (forward to 5) beforehand.
	run := func(t *testing.T, seed bool, mutate func(later *Table, seeded EntryID) error) *Table {
		sw := New(DefaultConfig())
		wild := func(p *PHV) []uint32 { return p.KeyScratch(1) }
		first, err := sw.AddTable("first", Ingress, 0, 4, 1, wild)
		if err != nil {
			t.Fatal(err)
		}
		later, err := sw.AddTable("later", Ingress, 3, 4, 1, wild)
		if err != nil {
			t.Fatal(err)
		}
		if err := later.RegisterAction("fwd", 1, func(p *PHV, params []uint32) { p.Meta.EgressSpec = int(params[0]) }); err != nil {
			t.Fatal(err)
		}
		var seeded EntryID
		if seed {
			if seeded, err = later.Insert([]TernaryKey{Wild()}, 0, "fwd", []uint32{5}, "p"); err != nil {
				t.Fatal(err)
			}
		}
		done := false
		if err := first.RegisterAction("link", 1, func(*PHV, []uint32) {
			if !done {
				done = true
				if err := mutate(later, seeded); err != nil {
					t.Error(err)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := first.Insert([]TernaryKey{Wild()}, 0, "link", nil, "p"); err != nil {
			t.Fatal(err)
		}
		if r := sw.Inject(dstPkt(2), 1); r.Verdict != VerdictForwarded || r.OutPort != 7 {
			t.Fatalf("packet that changed the later table mid-pass: %v port %d, want forwarded to 7", r.Verdict, r.OutPort)
		}
		if e := later.Entries(); len(e) != 1 || e[0].Hits() != 1 {
			t.Fatalf("later table entries %v, want one entry with one hit", e)
		}
		return later
	}
	t.Run("insert", func(t *testing.T) {
		run(t, false, func(later *Table, _ EntryID) error {
			_, err := later.Insert([]TernaryKey{Wild()}, 0, "fwd", []uint32{7}, "p")
			return err
		})
	})
	// One Update batch replaces the later table's only entry: the packet
	// sees the batch whole, never the table emptied between its delete and
	// its insert (which the skip would pass over).
	t.Run("batch", func(t *testing.T) {
		run(t, true, func(later *Table, seeded EntryID) error {
			_, err := later.Update([]EntryID{seeded}, []EntrySpec{{Keys: []TernaryKey{Wild()}, Action: "fwd", Params: []uint32{7}}}, "p")
			return err
		})
	})
}

// TestEmptyTableRunsDefault: an empty table with a default action can act,
// so it is not skipped: the default runs and a sampled packet records it.
func TestEmptyTableRunsDefault(t *testing.T) {
	sw, tbl := dstSwitch(t) // no entries, default drop
	if tbl.Len() != 0 {
		t.Fatalf("table has %d entries, want none", tbl.Len())
	}
	sw.EnablePostcards(1, 16)
	if r := sw.Inject(dstPkt(2), 1); r.Verdict != VerdictDropped {
		t.Fatalf("verdict %v, want the default's drop", r.Verdict)
	}
	pcs := sw.Postcards("", 0)
	if len(pcs) != 1 || len(pcs[0].Hops) != 1 {
		t.Fatalf("postcards %+v, want one with one hop", pcs)
	}
	if h := pcs[0].Hops[0]; h.Table != "t" || h.Action != "drop" || h.Match {
		t.Fatalf("hop %+v, want the default drop of table t", h)
	}
}

// TestParsePathGate: a table gated on one parsing path applies only to
// packets on that path — its key extractor never runs for another path's
// packets — takes only entries that match its path exactly, and leaves the
// derived stage lookup counters as they were: every table counts once per
// pass, gated or not.
func TestParsePathGate(t *testing.T) {
	sw := New(DefaultConfig())
	udpPath := pkt.BitEthernet | pkt.BitIPv4 | pkt.BitUDP
	tcpPath := pkt.BitEthernet | pkt.BitIPv4 | pkt.BitTCP
	extracted := map[pkt.ParseBitmap]int{}
	for _, path := range []pkt.ParseBitmap{tcpPath, udpPath} {
		tbl, err := sw.AddTable("init_"+path.String(), Ingress, 0, 4, 2, func(p *PHV) []uint32 {
			extracted[path]++
			k := p.KeyScratch(2)
			k[0] = uint32(p.Packet.Bitmap)
			return k
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.RegisterAction("fwd", 1, func(p *PHV, params []uint32) { p.Meta.EgressSpec = int(params[0]) }); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SetParsePath(0, path); err != nil {
			t.Fatal(err)
		}
		if _, err := tbl.Insert([]TernaryKey{Exact(uint32(udpPath ^ tcpPath ^ path)), Wild()}, 0, "fwd", []uint32{1}, "p"); err == nil {
			t.Fatalf("%s took an entry for another path", tbl.Name)
		}
		if _, err := tbl.Insert([]TernaryKey{Exact(uint32(path)), Wild()}, 0, "fwd", []uint32{uint32(path)}, "p"); err != nil {
			t.Fatal(err)
		}
		if err := tbl.SetParsePath(0, path); err == nil {
			t.Fatalf("%s: gate reset with an entry installed", tbl.Name)
		}
	}
	flow := pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: pkt.ProtoUDP}
	for i := 0; i < 3; i++ {
		if r := sw.Inject(pkt.NewUDP(flow, 100), 1); r.OutPort != int(udpPath) {
			t.Fatalf("UDP packet: %v port %d, want forwarded by the UDP path's table", r.Verdict, r.OutPort)
		}
	}
	if extracted[tcpPath] != 0 || extracted[udpPath] != 3 {
		t.Fatalf("key extractions %v: the TCP path's table ran for UDP packets", extracted)
	}
	if got := sw.Metrics().StageLookups[0]; got != 6 {
		t.Fatalf("stage 0 counted %d lookups for 3 packets over 2 tables, want 6", got)
	}
}
