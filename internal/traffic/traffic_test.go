package traffic

import (
	"bytes"
	"math"
	"testing"

	"p4runpro/internal/pkt"
	"p4runpro/internal/rmt"
)

func TestGenerateRateAndFlows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationMs = 2000
	tr := Generate(cfg)
	if len(tr.Flows) != cfg.Flows {
		t.Fatalf("flows = %d", len(tr.Flows))
	}
	var totalBytes int
	last := -1.0
	for _, ev := range tr.Events {
		totalBytes += ev.Pkt.WireLen
		if ev.AtMs < last {
			t.Fatal("events out of order")
		}
		last = ev.AtMs
		if ev.Port != cfg.IngressPort {
			t.Fatal("wrong ingress port")
		}
	}
	gotMbps := float64(totalBytes) * 8 / (float64(cfg.DurationMs) / 1000) / 1e6
	if gotMbps < cfg.RateMbps*0.95 || gotMbps > cfg.RateMbps*1.15 {
		t.Errorf("offered rate = %.1f Mbps, want ≈%.1f", gotMbps, cfg.RateMbps)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationMs = 300
	a, b := Generate(cfg), Generate(cfg)
	if len(a.Events) != len(b.Events) {
		t.Fatal("different event counts")
	}
	for i := range a.Events {
		if a.Events[i].AtMs != b.Events[i].AtMs || a.Events[i].Pkt.FiveTuple() != b.Events[i].Pkt.FiveTuple() {
			t.Fatalf("event %d differs", i)
		}
	}
	cfg.Seed = 2
	c := Generate(cfg)
	same := len(c.Events) == len(a.Events)
	if same {
		diff := false
		for i := range a.Events {
			if a.Events[i].Pkt.FiveTuple() != c.Events[i].Pkt.FiveTuple() {
				diff = true
				break
			}
		}
		same = !diff
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestHeavyFlowShaping(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationMs = 20000
	tr := Generate(cfg)
	truth := tr.HeavyFlowsOver(1024)
	if len(truth) < cfg.HeavyFlows*9/10 || len(truth) > cfg.HeavyFlows*11/10 {
		t.Errorf("heavy flows = %d, want ≈%d", len(truth), cfg.HeavyFlows)
	}
	// The heavy flows are exactly the first HeavyFlows indices.
	for i := 0; i < cfg.HeavyFlows; i++ {
		if !truth[tr.Flows[i]] {
			t.Errorf("designated heavy flow %d below threshold (%d pkts)", i, tr.Counts[tr.Flows[i]])
		}
	}
}

func TestMiceLifetime(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationMs = 10000
	cfg.MiceLifetimeMs = 500
	tr := Generate(cfg)
	// Each mouse's packets must span at most the lifetime window.
	first := map[pkt.FiveTuple]float64{}
	lastSeen := map[pkt.FiveTuple]float64{}
	heavy := map[pkt.FiveTuple]bool{}
	for i := 0; i < cfg.HeavyFlows; i++ {
		heavy[tr.Flows[i]] = true
	}
	for _, ev := range tr.Events {
		f := ev.Pkt.FiveTuple()
		if heavy[f] {
			continue
		}
		if _, ok := first[f]; !ok {
			first[f] = ev.AtMs
		}
		lastSeen[f] = ev.AtMs
	}
	for f, fst := range first {
		if lastSeen[f]-fst > float64(cfg.MiceLifetimeMs)+1 {
			t.Fatalf("mouse %v active %.0f ms, window %d", f, lastSeen[f]-fst, cfg.MiceLifetimeMs)
		}
	}
}

func TestGenerateCacheTrace(t *testing.T) {
	cfg := DefaultCacheConfig()
	cfg.DurationMs = 2000
	tr := GenerateCache(cfg)
	reads, writes, hits := 0, 0, 0
	for _, ev := range tr.Events {
		nc := ev.Pkt.NC
		if nc == nil {
			t.Fatal("non-cache packet in cache trace")
		}
		if ev.Pkt.UDP.DstPort != pkt.PortNetCache {
			t.Fatal("wrong port")
		}
		if nc.Op == pkt.NCWrite {
			writes++
			continue
		}
		reads++
		key := uint64(nc.Key2)<<32 | uint64(nc.Key1)
		if key >= 0x8888 && key < 0x8888+uint64(cfg.CachedKeys) {
			hits++
		}
	}
	hitRate := float64(hits) / float64(reads)
	if math.Abs(hitRate-cfg.HitRate) > 0.02 {
		t.Errorf("hit rate = %.3f, want %.2f", hitRate, cfg.HitRate)
	}
	wr := float64(writes) / float64(reads+writes)
	if math.Abs(wr-cfg.WriteShare) > 0.01 {
		t.Errorf("write share = %.3f", wr)
	}
}

// fakeInjector classifies by destination port for replay tests.
type fakeInjector struct{ calls int }

func (f *fakeInjector) Inject(p *pkt.Packet, port int) rmt.Result {
	f.calls++
	t := p.FiveTuple()
	switch {
	case t.DstPort%3 == 0:
		return rmt.Result{Verdict: rmt.VerdictDropped, OutPort: -1, Packet: p}
	case t.DstPort%3 == 1:
		return rmt.Result{Verdict: rmt.VerdictForwarded, OutPort: 2, Packet: p}
	}
	return rmt.Result{Verdict: rmt.VerdictReflected, OutPort: port, Packet: p}
}

func TestReplayBucketsAndVerdicts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationMs = 1000
	tr := Generate(cfg)
	inj := &fakeInjector{}
	res := Replay(tr, PerPacket(inj.Inject), nil, 50)
	if inj.calls != len(tr.Events) || res.Packets != len(tr.Events) {
		t.Fatalf("calls = %d of %d", inj.calls, len(tr.Events))
	}
	if got := len(res.Forwarded.Values); got < 20 || got > 21 {
		t.Errorf("buckets = %d, want 20-21 for a 1 s trace at 50 ms", got)
	}
	total := 0
	for _, n := range res.Verdicts {
		total += n
	}
	if total != res.Packets {
		t.Error("verdict counts don't sum")
	}
	// Conservation: sum of all series ≈ offered rate.
	sum := res.Forwarded.Mean(0, 1000) + res.Reflected.Mean(0, 1000) + res.Dropped.Mean(0, 1000) + res.ToCPU.Mean(0, 1000)
	if sum < cfg.RateMbps*0.9 || sum > cfg.RateMbps*1.2 {
		t.Errorf("series sum %.1f Mbps vs offered %.1f", sum, cfg.RateMbps)
	}
	if _, ok := res.PerPort[2]; !ok {
		t.Error("per-port series missing")
	}
}

func TestReplayScheduleAndHooks(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationMs = 500
	tr := Generate(cfg)
	fired := []float64{}
	sched := []Action{
		{AtMs: 250, Do: func() { fired = append(fired, 250) }},
		{AtMs: 100, Do: func() { fired = append(fired, 100) }},
		{AtMs: 9999, Do: func() { fired = append(fired, 9999) }}, // past trace end
	}
	buckets := []int{}
	Replay(tr, PerPacket((&fakeInjector{}).Inject), sched, 50, func(b int) { buckets = append(buckets, b) })
	if len(fired) != 3 || fired[0] != 100 || fired[1] != 250 {
		t.Errorf("schedule order = %v", fired)
	}
	if len(buckets) < 9 {
		t.Errorf("bucket hooks = %d", len(buckets))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] != buckets[i-1]+1 {
			t.Fatal("bucket hooks not consecutive")
		}
	}
}

func TestSeriesHelpers(t *testing.T) {
	s := Series{BucketMs: 50, Values: []float64{10, 20, 30, 40}}
	if got := s.Mean(0, 100); got != 15 {
		t.Errorf("Mean(0,100) = %f", got)
	}
	if got := s.Mean(100, 1000); got != 35 {
		t.Errorf("Mean(100,1000) = %f", got)
	}
	if got := s.Mean(500, 600); got != 0 {
		t.Errorf("Mean past end = %f", got)
	}
	times := s.Times()
	if times[0] != 0.025 || times[3] != 0.175 {
		t.Errorf("Times = %v", times)
	}
}

func TestF1Score(t *testing.T) {
	a := pkt.FiveTuple{SrcIP: 1}
	b := pkt.FiveTuple{SrcIP: 2}
	c := pkt.FiveTuple{SrcIP: 3}
	truth := map[pkt.FiveTuple]bool{a: true, b: true}
	if got := F1(map[pkt.FiveTuple]bool{a: true, b: true}, truth); got != 1 {
		t.Errorf("perfect F1 = %f", got)
	}
	if got := F1(map[pkt.FiveTuple]bool{a: true, c: true}, truth); got != 0.5 {
		t.Errorf("half F1 = %f", got)
	}
	if got := F1(nil, truth); got != 0 {
		t.Errorf("empty reported F1 = %f", got)
	}
	if got := F1(map[pkt.FiveTuple]bool{a: true}, nil); got != 0 {
		t.Errorf("empty truth F1 = %f", got)
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationMs = 300
	tr := Generate(cfg)

	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("events = %d, want %d", len(got.Events), len(tr.Events))
	}
	for i := range tr.Events {
		a, b := tr.Events[i], got.Events[i]
		if a.Port != b.Port || a.Pkt.FiveTuple() != b.Pkt.FiveTuple() || a.Pkt.WireLen != b.Pkt.WireLen {
			t.Fatalf("event %d differs: %+v vs %+v", i, a, b)
		}
		// Timestamps survive at microsecond resolution.
		if d := a.AtMs - b.AtMs; d > 0.001 || d < -0.001 {
			t.Fatalf("event %d timestamp drift %f", i, d)
		}
	}
	if len(got.Counts) != len(tr.Counts) {
		t.Errorf("flow counts = %d, want %d", len(got.Counts), len(tr.Counts))
	}
}

func TestTraceFileValidation(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"bad magic":        []byte("NOTATRACEFILE123"),
		"truncated header": append(append([]byte{}, traceMagic[:]...), 0, 0),
	}
	for name, data := range cases {
		if _, err := ReadTrace(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Truncated mid-event.
	cfg := DefaultConfig()
	cfg.DurationMs = 50
	var buf bytes.Buffer
	if err := WriteTrace(&buf, Generate(cfg)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, err := ReadTrace(bytes.NewReader(full[:len(full)-3])); err == nil {
		t.Error("truncated trace accepted")
	}
	// Corrupted frame bytes fail the packet codec.
	corrupt := append([]byte{}, full...)
	corrupt[30] ^= 0xFF
	if _, err := ReadTrace(bytes.NewReader(corrupt)); err == nil {
		t.Log("single-byte corruption survived parsing (can be benign)")
	}
}

// TestTraceFileReplayEquivalence: a replayed loaded trace produces the same
// verdict tallies as the original.
func TestTraceFileReplayEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationMs = 400
	tr := Generate(cfg)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	r1 := Replay(tr, PerPacket((&fakeInjector{}).Inject), nil, 50)
	r2 := Replay(loaded, PerPacket((&fakeInjector{}).Inject), nil, 50)
	if r1.Packets != r2.Packets {
		t.Fatalf("packets %d vs %d", r1.Packets, r2.Packets)
	}
	for v, n := range r1.Verdicts {
		if r2.Verdicts[v] != n {
			t.Errorf("verdict %v: %d vs %d", v, n, r2.Verdicts[v])
		}
	}
}

func TestMergeFeeds(t *testing.T) {
	gen := func(seed int64) *Trace {
		cfg := DefaultConfig()
		cfg.Seed = seed
		cfg.Flows = 16
		cfg.HeavyFlows = 2
		cfg.DurationMs = 20
		cfg.RateMbps = 5
		return Generate(cfg)
	}
	a, b := gen(1), gen(2)
	m := MergeFeeds(Feed{Node: "leaf0", Trace: a}, Feed{Node: "leaf1", Trace: b})

	if len(m.Events) != len(a.Events)+len(b.Events) {
		t.Fatalf("merged %d events, want %d", len(m.Events), len(a.Events)+len(b.Events))
	}
	// Time order holds across feeds, and every event carries its entry node.
	perNode := map[string]int{}
	for i, ev := range m.Events {
		if i > 0 && ev.AtMs < m.Events[i-1].AtMs {
			t.Fatalf("event %d out of order: %f < %f", i, ev.AtMs, m.Events[i-1].AtMs)
		}
		if ev.Node != "leaf0" && ev.Node != "leaf1" {
			t.Fatalf("event %d has node %q", i, ev.Node)
		}
		perNode[ev.Node]++
	}
	if perNode["leaf0"] != len(a.Events) || perNode["leaf1"] != len(b.Events) {
		t.Fatalf("per-node split %v, want %d/%d", perNode, len(a.Events), len(b.Events))
	}
	// Ground-truth counts sum across feeds.
	var want, got int
	for _, n := range a.Counts {
		want += n
	}
	for _, n := range b.Counts {
		want += n
	}
	for _, n := range m.Counts {
		got += n
	}
	if got != want {
		t.Fatalf("merged counts %d, want %d", got, want)
	}
	if len(m.Flows) != len(a.Flows)+len(b.Flows) {
		t.Fatalf("merged flows %d, want %d", len(m.Flows), len(a.Flows)+len(b.Flows))
	}
	// Determinism: merging the same feeds again yields the same sequence.
	m2 := MergeFeeds(Feed{Node: "leaf0", Trace: gen(1)}, Feed{Node: "leaf1", Trace: gen(2)})
	for i := range m.Events {
		if m.Events[i].AtMs != m2.Events[i].AtMs || m.Events[i].Node != m2.Events[i].Node {
			t.Fatalf("merge not deterministic at event %d", i)
		}
	}
}
