package rmt

import (
	"sync"
	"testing"

	"p4runpro/internal/pkt"
)

func udpFlow(srcPort uint16) *pkt.Packet {
	return pkt.NewUDP(pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: srcPort, DstPort: 4, Proto: pkt.ProtoUDP}, 100)
}

func TestPostcardsDisabledByDefault(t *testing.T) {
	sw := testSwitch(t)
	for i := 0; i < 100; i++ {
		sw.Inject(udpFlow(uint16(i)), 1)
	}
	if n := sw.PostcardCount(); n != 0 {
		t.Fatalf("postcards recorded while disabled: %d", n)
	}
	if pcs := sw.Postcards("", 0); pcs != nil {
		t.Fatalf("disabled switch returned postcards: %v", pcs)
	}
	every, keep := sw.PostcardConfig()
	if every != 0 || keep != 0 {
		t.Fatalf("config = %d,%d, want 0,0", every, keep)
	}
}

func TestPostcardSamplingCadence(t *testing.T) {
	sw := testSwitch(t)
	sw.EnablePostcards(4, 64)
	for i := 0; i < 100; i++ {
		sw.Inject(udpFlow(uint16(i)), 1)
	}
	if n := sw.PostcardCount(); n != 25 {
		t.Fatalf("1-in-4 over 100 packets recorded %d postcards, want 25", n)
	}
	pcs := sw.Postcards("", 0)
	if len(pcs) != 25 {
		t.Fatalf("ring returned %d postcards, want 25", len(pcs))
	}
	// Oldest-first ordering with monotonically increasing sequence numbers.
	for i := 1; i < len(pcs); i++ {
		if pcs[i].Seq <= pcs[i-1].Seq {
			t.Fatalf("postcards out of order: seq[%d]=%d after seq[%d]=%d", i, pcs[i].Seq, i-1, pcs[i-1].Seq)
		}
	}
}

func TestPostcardRecordsHops(t *testing.T) {
	sw := testSwitch(t)
	sw.EnablePostcards(1, 16)

	r := sw.Inject(udpFlow(7), 3)
	if r.Verdict != VerdictForwarded {
		t.Fatalf("verdict %v", r.Verdict)
	}
	pcs := sw.Postcards("", 0)
	if len(pcs) != 1 {
		t.Fatalf("got %d postcards, want 1", len(pcs))
	}
	pc := pcs[0]
	if pc.InPort != 3 || pc.Verdict != VerdictForwarded || pc.OutPort != 9 || pc.Passes != 1 {
		t.Fatalf("postcard header %+v", pc)
	}
	if pc.Flow.SrcPort != 7 || pc.Flow.Proto != pkt.ProtoUDP {
		t.Fatalf("postcard flow %+v", pc.Flow)
	}
	if len(pc.Hops) != 1 {
		t.Fatalf("got %d hops, want 1: %+v", len(pc.Hops), pc.Hops)
	}
	h := pc.Hops[0]
	if h.Table != "route" || h.Action != "fwd" || h.Owner != "test" || !h.Match || h.Gress != Ingress || h.Stage != 0 {
		t.Fatalf("hop %+v", h)
	}
	if owners := pc.Owners(); len(owners) != 1 || owners[0] != "test" {
		t.Fatalf("owners %v", owners)
	}
	if pc.Latency <= 0 {
		t.Fatalf("latency %v", pc.Latency)
	}
}

func TestPostcardMissWithoutDefaultNotRecorded(t *testing.T) {
	sw := testSwitch(t)
	sw.EnablePostcards(1, 16)
	// ICMP matches neither installed entry and "route" has no default action:
	// no step executed, so the postcard must carry zero hops.
	ic := pkt.NewUDP(pkt.FiveTuple{SrcIP: 1, DstIP: 2, SrcPort: 1, DstPort: 2, Proto: pkt.ProtoUDP}, 100)
	ic.IP4.Proto = 1 // rewrite to a proto with no entry
	sw.Inject(ic, 0)
	pcs := sw.Postcards("", 0)
	if len(pcs) != 1 {
		t.Fatalf("got %d postcards, want 1", len(pcs))
	}
	if len(pcs[0].Hops) != 0 {
		t.Fatalf("miss recorded hops: %+v", pcs[0].Hops)
	}
	if pcs[0].Verdict != VerdictNoDecision {
		t.Fatalf("verdict %v", pcs[0].Verdict)
	}
}

func TestPostcardDefaultActionHop(t *testing.T) {
	sw := testSwitch(t)
	tbl, _ := sw.Table("route")
	if err := tbl.SetDefault("drop"); err != nil {
		t.Fatal(err)
	}
	sw.EnablePostcards(1, 16)
	ic := udpFlow(1)
	ic.IP4.Proto = 1
	sw.Inject(ic, 0)
	pcs := sw.Postcards("", 0)
	if len(pcs) != 1 || len(pcs[0].Hops) != 1 {
		t.Fatalf("postcards %+v", pcs)
	}
	h := pcs[0].Hops[0]
	if h.Action != "drop" || h.Match || h.Owner != "" {
		t.Fatalf("default hop %+v", h)
	}
}

func TestPostcardRingWraparound(t *testing.T) {
	sw := testSwitch(t)
	sw.EnablePostcards(1, 8)
	for i := 0; i < 20; i++ {
		sw.Inject(udpFlow(uint16(i)), 1)
	}
	if n := sw.PostcardCount(); n != 20 {
		t.Fatalf("count %d, want 20", n)
	}
	pcs := sw.Postcards("", 0)
	if len(pcs) != 8 {
		t.Fatalf("ring returned %d, want 8 (ring size)", len(pcs))
	}
	// The ring keeps the most recent 8: source ports 12..19.
	if got := pcs[0].Flow.SrcPort; got != 12 {
		t.Fatalf("oldest retained src port %d, want 12", got)
	}
	if got := pcs[7].Flow.SrcPort; got != 19 {
		t.Fatalf("newest retained src port %d, want 19", got)
	}
	// Limit smaller than the ring returns the newest `limit`.
	if pcs = sw.Postcards("", 3); len(pcs) != 3 || pcs[2].Flow.SrcPort != 19 {
		t.Fatalf("limited snapshot %+v", pcs)
	}
}

func TestPostcardOwnerFilter(t *testing.T) {
	sw := testSwitch(t)
	tbl, _ := sw.Table("route")
	// A second program's entry on a different proto value.
	if _, err := tbl.Insert([]TernaryKey{Exact(47)}, 0, "fwd", []uint32{5}, "other"); err != nil {
		t.Fatal(err)
	}
	sw.EnablePostcards(1, 64)
	for i := 0; i < 6; i++ {
		sw.Inject(udpFlow(uint16(i)), 1) // owner "test"
	}
	gre := udpFlow(99)
	gre.IP4.Proto = 47
	sw.Inject(gre, 1) // owner "other"

	if pcs := sw.Postcards("other", 0); len(pcs) != 1 || pcs[0].Flow.SrcPort != 99 {
		t.Fatalf("owner filter: %+v", pcs)
	}
	if pcs := sw.Postcards("test", 2); len(pcs) != 2 {
		t.Fatalf("owner filter with limit returned %d", len(pcs))
	}
	if pcs := sw.Postcards("ghost", 0); len(pcs) != 0 {
		t.Fatalf("unknown owner returned %d postcards", len(pcs))
	}
}

// TestInjectBatchPathTracedItem: in a burst whose middle item carries a
// fabric PathID, only that item gets a Postcard, stamped with the ID; the
// forced postcard does not advance the 1-in-N sampler; and the ring receives
// it only when postcards are enabled.
func TestInjectBatchPathTracedItem(t *testing.T) {
	for _, every := range []int{0, 2} {
		sw := testSwitch(t)
		if every > 0 {
			sw.EnablePostcards(every, 16)
		}
		items := []BatchItem{
			{Pkt: udpFlow(1), Port: 1},
			{Pkt: udpFlow(2), Port: 1, PathID: 7},
			{Pkt: udpFlow(3), Port: 1},
		}
		sw.InjectBatch(items)
		for i, it := range items {
			if i != 1 {
				if it.Postcard != nil {
					t.Fatalf("every=%d: untraced item %d got postcard %+v", every, i, it.Postcard)
				}
				continue
			}
			pc := it.Postcard
			if pc == nil || pc.PathID != 7 || pc.Flow.SrcPort != 2 || pc.Verdict != VerdictForwarded || len(pc.Hops) != 1 {
				t.Fatalf("every=%d: traced item postcard %+v", every, pc)
			}
		}
		pcs := sw.Postcards("", 0)
		if every == 0 {
			if pcs != nil || sw.post.seq.Load() != 0 {
				t.Fatalf("disabled switch: ring %+v, sampler seq %d", pcs, sw.post.seq.Load())
			}
			continue
		}
		// The sampler counted items 0 and 2 only, so item 2 is its second
		// arrival and the 1-in-2 sample; the forced postcard sits before it.
		if got := sw.post.seq.Load(); got != 2 {
			t.Fatalf("sampler seq %d, want 2 (forced postcard must not advance it)", got)
		}
		if len(pcs) != 2 || pcs[0].PathID != 7 || pcs[1].PathID != 0 || pcs[1].Flow.SrcPort != 3 {
			t.Fatalf("ring %+v, want the forced postcard then item 2's sample", pcs)
		}
	}
}

func TestPostcardHopTruncation(t *testing.T) {
	tr := &pathTrace{}
	for i := 0; i < maxPostcardHops+10; i++ {
		tr.hop(PostcardHop{Stage: i})
	}
	if tr.n != maxPostcardHops || !tr.truncated {
		t.Fatalf("n=%d truncated=%v", tr.n, tr.truncated)
	}
	tr.reset()
	if tr.n != 0 || tr.truncated {
		t.Fatalf("reset left n=%d truncated=%v", tr.n, tr.truncated)
	}
}

func TestPostcardReconfigureWhileRunning(t *testing.T) {
	sw := testSwitch(t)
	sw.EnablePostcards(2, 16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				sw.Inject(udpFlow(uint16(g*1000+i)), 1)
				i++
			}
		}(g)
	}
	for i := 0; i < 50; i++ {
		sw.EnablePostcards(3, 8)
		_ = sw.Postcards("", 0)
		sw.EnablePostcards(0, 0) // disable
		sw.EnablePostcards(2, 16)
	}
	close(stop)
	wg.Wait()
	if _, keep := sw.PostcardConfig(); keep != 16 {
		t.Fatalf("final keep %d", keep)
	}
}

func TestPostcardRecircCount(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRecirc = 3
	sw := New(cfg)
	tbl, err := sw.AddTable("loop", Ingress, 0, 4, 1, func(p *PHV) []uint32 { return []uint32{1} })
	if err != nil {
		t.Fatal(err)
	}
	passes := 0
	if err := tbl.RegisterAction("maybe_recirc", 1, func(p *PHV, _ []uint32) {
		passes++
		if passes < 3 {
			p.Meta.Recirc = true
		} else {
			p.Meta.EgressSpec = 1
		}
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Insert([]TernaryKey{Wild()}, 0, "maybe_recirc", nil, "looper"); err != nil {
		t.Fatal(err)
	}
	sw.EnablePostcards(1, 4)
	r := sw.Inject(udpFlow(1), 0)
	if r.Passes != 3 {
		t.Fatalf("passes %d", r.Passes)
	}
	pcs := sw.Postcards("", 0)
	if len(pcs) != 1 {
		t.Fatalf("postcards %d", len(pcs))
	}
	if pcs[0].Recircs != 2 || pcs[0].Passes != 3 {
		t.Fatalf("recircs=%d passes=%d, want 2,3", pcs[0].Recircs, pcs[0].Passes)
	}
	if len(pcs[0].Hops) != 3 {
		t.Fatalf("hops %d, want 3 (one per pass)", len(pcs[0].Hops))
	}
}
