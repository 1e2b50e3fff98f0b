package rmt

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"p4runpro/internal/pkt"
)

// TestConcurrentInjectUnderTableChurn is the -race regression test for the
// packet fast path: goroutines inject traffic, singly and in bursts (hitting
// table match logic, entry hit counters, SALU memory, and port counters)
// while the control plane churns entries in the same table. Entries forward
// to port 2 and the default to port 7, so once every burst has returned the
// hits of every entry ever installed, deleted ones included, must sum to
// port 2's packets: a burst's tallied hits land on the entries it matched
// even when they were deleted mid-burst.
func TestConcurrentInjectUnderTableChurn(t *testing.T) {
	cfg := DefaultConfig()
	sw := New(cfg)
	tbl, err := sw.AddTable("churn", Ingress, 0, 64, 1, func(p *PHV) []uint32 {
		k := p.KeyScratch(1)
		if p.Packet.IP4 != nil {
			k[0] = p.Packet.IP4.Dst
		}
		return k
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.RegisterAction("fwd_count", 1, func(p *PHV, params []uint32) {
		p.Meta.EgressSpec = int(params[0])
		if _, err := sw.AccessMemory(p, SALUAdd, 0, 1); err != nil {
			panic(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.SetDefault("fwd_count", 7); err != nil {
		t.Fatal(err)
	}

	const flows = 16
	stop := make(chan struct{})
	var churn, inj sync.WaitGroup

	// Control-plane churn: insert and delete entries for the live keys,
	// keeping every entry ever installed (the newest has the highest ID).
	var installed []*Entry
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id, err := tbl.Insert([]TernaryKey{Exact(uint32(i % flows))}, i%4, "fwd_count", []uint32{2}, "churn")
			if err == nil {
				es := tbl.Entries()
				installed = append(installed, es[len(es)-1])
			}
			if err == nil && i%2 == 0 {
				_ = tbl.Delete(id)
			}
			if i%(3*flows) == 0 {
				_ = tbl.DeleteOwned("churn")
			}
		}
	}()

	workers := runtime.GOMAXPROCS(0)
	if workers < 2 {
		workers = 2
	}
	var injected atomic.Uint64
	for w := 0; w < workers; w++ {
		inj.Add(1)
		go func(w int) {
			defer inj.Done()
			ft := func(i int) pkt.FiveTuple {
				return pkt.FiveTuple{SrcIP: uint32(w), DstIP: uint32(i % flows), SrcPort: 1, DstPort: 2, Proto: pkt.ProtoUDP}
			}
			batch := make([]BatchItem, 16)
			for i := 0; i < 2000; {
				if i%3 == 0 && i+len(batch) <= 2000 { // the InjectBatch leg
					for j := range batch {
						batch[j] = BatchItem{Pkt: pkt.NewUDP(ft(i+j), 100), Port: w % 4}
					}
					sw.InjectBatch(batch)
					for j := range batch {
						if v := batch[j].Res.Verdict; v != VerdictForwarded {
							t.Errorf("worker %d: batch verdict %v", w, v)
							return
						}
					}
					i += len(batch)
					injected.Add(uint64(len(batch)))
					continue
				}
				r := sw.Inject(pkt.NewUDP(ft(i), 100), w%4)
				if r.Verdict != VerdictForwarded {
					t.Errorf("worker %d: verdict %v", w, r.Verdict)
					return
				}
				i++
				injected.Add(1)
			}
		}(w)
	}
	// Concurrent control-plane reads of everything the fast path writes.
	churn.Add(1)
	go func() {
		defer churn.Done()
		arr, _ := sw.Array(Ingress, 0)
		for {
			select {
			case <-stop:
				return
			default:
			}
			tbl.OwnerHits("churn")
			tbl.Len()
			_ = sw.Metrics()
			_ = sw.PortStats(2)
			_, _ = arr.Peek(0)
		}
	}()

	// Injectors have a fixed amount of work; churn and scrape loop until
	// stopped, so they stay active for the whole injection window.
	inj.Wait()
	close(stop)
	churn.Wait()

	want := uint64(workers) * 2000
	var hits uint64
	for _, e := range installed {
		hits += e.Hits()
	}
	matched, missed := sw.PortStats(2).TxPackets, sw.PortStats(7).TxPackets
	if hits != matched || matched+missed != want {
		t.Errorf("entry hits %d, port 2 (entries) %d, port 7 (default) %d: want hits = port 2 and ports summing to %d",
			hits, matched, missed, want)
	}
	if got := sw.Metrics().Packets; got != want {
		t.Errorf("packet counter %d, want %d", got, want)
	}
	arr, _ := sw.Array(Ingress, 0)
	if v, _ := arr.Peek(0); uint64(v) != want {
		t.Errorf("SALU add lost updates: %d, want %d", v, want)
	}
}

// TestDeclareKeyFieldsUnderTraffic declares a table's key containers while
// workers inject through it: the declaration is published with the match
// state, so a packet extracts its key through keyFunc or by direct container
// reads — never a half-set index slice — and both give the same verdict.
func TestDeclareKeyFieldsUnderTraffic(t *testing.T) {
	sw, tbl := dstSwitch(t)
	if _, err := tbl.Insert([]TernaryKey{Exact(7)}, 0, "fwd", []uint32{3}, "p"); err != nil {
		t.Fatal(err)
	}
	const perWorker = 4000
	var wg sync.WaitGroup
	for w := 0; w < max(2, runtime.GOMAXPROCS(0)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				dst := uint32(7 + i%2)
				r := sw.Inject(dstPkt(dst), 1)
				if dst == 7 && (r.Verdict != VerdictForwarded || r.OutPort != 3) || dst == 8 && r.Verdict != VerdictDropped {
					t.Errorf("dst %d: %v out %d", dst, r.Verdict, r.OutPort)
					return
				}
			}
		}()
	}
	// Declare once traffic is demonstrably flowing, so packets run on both
	// sides of the publication.
	for sw.Metrics().Packets < perWorker/4 && !t.Failed() {
		runtime.Gosched()
	}
	if err := tbl.SetPHVKeyFields(sw.PHVLayout(), "dst"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestPacketSeesWholeEntryVersion is the §5 consistency property test:
// while the control plane replaces an entry (insert new version, delete old),
// every concurrent packet must observe one complete version — matched action
// params always come from a single version, never a torn mix, and no packet
// falls through to a miss during the swap.
func TestPacketSeesWholeEntryVersion(t *testing.T) {
	tbl := NewTable("ver", Ingress, 0, 64, 1, func(p *PHV) []uint32 {
		k := p.KeyScratch(1)
		k[0] = p.Get("k0")
		return k
	})
	// Params carry the version twice; a torn read would pair words from
	// different versions.
	if err := tbl.RegisterAction("mark", 1, func(p *PHV, params []uint32) {
		p.Set("a", params[0])
		p.Set("b", params[1])
	}); err != nil {
		t.Fatal(err)
	}

	layout := NewPHVLayout(4096)
	for _, f := range []string{"k0", "a", "b"} {
		if err := layout.Define(f, 32); err != nil {
			t.Fatal(err)
		}
	}

	const versions = 3000
	id, err := tbl.Insert([]TernaryKey{Exact(42)}, 0, "mark", []uint32{0, 0}, "cp")
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for v := uint32(1); v <= versions; v++ {
			// Insert the new version first, then delete the old: equal
			// priority and stable ordering keep exactly one complete
			// version matchable at every instant.
			nid, err := tbl.Insert([]TernaryKey{Exact(42)}, 0, "mark", []uint32{v, v}, "cp")
			if err != nil {
				t.Error(err)
				return
			}
			if err := tbl.Delete(id); err != nil {
				t.Error(err)
				return
			}
			id = nid
		}
	}()

	readers := 4
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			phv := NewPHV(layout, nil, 0)
			phv.Set("k0", 42)
			last := uint32(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !tbl.Apply(phv) {
					t.Error("packet missed during entry replacement")
					return
				}
				a, b := phv.Get("a"), phv.Get("b")
				if a != b {
					t.Errorf("torn entry observed: params (%d, %d)", a, b)
					return
				}
				if a < last {
					t.Errorf("version went backwards: %d after %d", a, last)
					return
				}
				last = a
			}
		}()
	}
	wg.Wait()
}

// TestRegisterArrayConcurrentOps verifies the per-word SALU atomics under
// contention: adds must not lose updates and max must converge to the global
// maximum, modeling simultaneous packets hitting one sketch bucket.
func TestRegisterArrayConcurrentOps(t *testing.T) {
	arr := NewRegisterArray(Ingress, 0, 4)
	const workers, perWorker = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := arr.Execute(SALUAdd, 0, 1); err != nil {
					t.Error(err)
					return
				}
				if _, err := arr.Execute(SALUMax, 1, uint32(w*perWorker+i)); err != nil {
					t.Error(err)
					return
				}
				if _, err := arr.Execute(SALUOr, 2, 1<<uint(w)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if v, _ := arr.Peek(0); v != workers*perWorker {
		t.Errorf("concurrent adds lost updates: %d, want %d", v, workers*perWorker)
	}
	if v, _ := arr.Peek(1); v != workers*perWorker-1 {
		t.Errorf("concurrent max converged to %d, want %d", v, workers*perWorker-1)
	}
	if v, _ := arr.Peek(2); v != 1<<workers-1 {
		t.Errorf("concurrent or bits %#x, want %#x", v, 1<<workers-1)
	}
}
