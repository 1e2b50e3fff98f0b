package traffic

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"p4runpro/internal/pkt"
	"p4runpro/internal/rmt"
)

// parallelInjector mirrors fakeInjector's deterministic per-packet behavior
// but is safe for concurrent Inject calls.
type parallelInjector struct {
	calls   atomic.Int64
	outPort atomic.Int64 // port for the forwarded class; swappable mid-replay
}

func newParallelInjector() *parallelInjector {
	in := &parallelInjector{}
	in.outPort.Store(2)
	return in
}

func (f *parallelInjector) Inject(p *pkt.Packet, port int) rmt.Result {
	f.calls.Add(1)
	t := p.FiveTuple()
	switch {
	case t.DstPort%3 == 0:
		return rmt.Result{Verdict: rmt.VerdictDropped, OutPort: -1, Packet: p}
	case t.DstPort%3 == 1:
		return rmt.Result{Verdict: rmt.VerdictForwarded, OutPort: int(f.outPort.Load()), Packet: p}
	}
	return rmt.Result{Verdict: rmt.VerdictReflected, OutPort: port, Packet: p}
}

func seriesEqual(t *testing.T, name string, a, b Series) {
	t.Helper()
	if a.BucketMs != b.BucketMs || len(a.Values) != len(b.Values) {
		t.Fatalf("%s: shape mismatch (%v/%d vs %v/%d)", name, a.BucketMs, len(a.Values), b.BucketMs, len(b.Values))
	}
	for i := range a.Values {
		if a.Values[i] != b.Values[i] {
			t.Fatalf("%s: bucket %d = %v, want %v", name, i, b.Values[i], a.Values[i])
		}
	}
}

// TestReplayParallelEquivalence: for a stateless injector, ReplayParallel
// must produce bit-identical output to one-worker Replay — same bucket values
// (each is an exact sum of integer byte counts), verdict counts, per-port
// series, and packet total — at any worker count.
func TestReplayParallelEquivalence(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationMs = 1000
	tr := Generate(cfg)

	serial := Replay(tr, PerPacket(newParallelInjector().Inject), nil, 50)
	for _, workers := range []int{1, 2, 4, 7} {
		par := ReplayParallel(tr, PerPacket(newParallelInjector().Inject), nil, 50, workers)
		if par.Packets != serial.Packets {
			t.Fatalf("workers=%d: %d packets, want %d", workers, par.Packets, serial.Packets)
		}
		seriesEqual(t, "forwarded", serial.Forwarded, par.Forwarded)
		seriesEqual(t, "reflected", serial.Reflected, par.Reflected)
		seriesEqual(t, "dropped", serial.Dropped, par.Dropped)
		seriesEqual(t, "tocpu", serial.ToCPU, par.ToCPU)
		if len(par.PerPort) != len(serial.PerPort) {
			t.Fatalf("workers=%d: per-port map size %d, want %d", workers, len(par.PerPort), len(serial.PerPort))
		}
		for port, s := range serial.PerPort {
			ps, ok := par.PerPort[port]
			if !ok {
				t.Fatalf("workers=%d: missing port %d series", workers, port)
			}
			seriesEqual(t, "perport", *s, *ps)
		}
		for v, n := range serial.Verdicts {
			if par.Verdicts[v] != n {
				t.Fatalf("workers=%d: verdict %v count %d, want %d", workers, v, par.Verdicts[v], n)
			}
		}
	}
}

// flowOrderInjector asserts that packets of one flow arrive in trace order,
// by comparing packet identity against the flow's precomputed sequence.
type flowOrderInjector struct {
	mu      sync.Mutex
	want    map[pkt.FiveTuple][]*pkt.Packet
	cursor  map[pkt.FiveTuple]int
	ordered bool
}

func (f *flowOrderInjector) Inject(p *pkt.Packet, port int) rmt.Result {
	ft := p.FiveTuple()
	f.mu.Lock()
	seq := f.want[ft]
	i := f.cursor[ft]
	if i >= len(seq) || seq[i] != p {
		f.ordered = false
	}
	f.cursor[ft] = i + 1
	f.mu.Unlock()
	return rmt.Result{Verdict: rmt.VerdictForwarded, OutPort: 2, Packet: p}
}

// TestReplayParallelFlowOrder: 5-tuple sharding must preserve per-flow
// packet order even though flows interleave across workers.
func TestReplayParallelFlowOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationMs = 500
	tr := Generate(cfg)
	inj := &flowOrderInjector{
		want:    make(map[pkt.FiveTuple][]*pkt.Packet),
		cursor:  make(map[pkt.FiveTuple]int),
		ordered: true,
	}
	for _, ev := range tr.Events {
		ft := ev.Pkt.FiveTuple()
		inj.want[ft] = append(inj.want[ft], ev.Pkt)
	}
	res := ReplayParallel(tr, PerPacket(inj.Inject), nil, 50, 8)
	if !inj.ordered {
		t.Fatal("per-flow packet order violated")
	}
	if res.Packets != len(tr.Events) {
		t.Fatalf("replayed %d of %d events", res.Packets, len(tr.Events))
	}
}

// TestReplayParallelBarriers: scheduled actions are time barriers — every
// event before the action's time completes on all workers first, and every
// event at or after it observes the action's effect. Hooks fire once per
// bucket, in order, after exactly the bucket's events are done — at one
// worker as at four.
func TestReplayParallelBarriers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationMs = 500
	tr := Generate(cfg)

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			inj := newParallelInjector()
			fired := []float64{}
			sched := []Action{
				{AtMs: 250, Do: func() { fired = append(fired, 250); inj.outPort.Store(3) }},
				{AtMs: 100, Do: func() { fired = append(fired, 100) }},
				{AtMs: 9999, Do: func() { fired = append(fired, 9999) }}, // past trace end
			}
			var hooks []int
			var seen int64 // injector calls when the previous hook fired
			res := ReplayParallel(tr, PerPacket(inj.Inject), sched, 50, workers, func(b int) {
				hooks = append(hooks, b)
				want := 0
				for _, ev := range tr.Events {
					if ev.AtMs >= float64(b)*50 && ev.AtMs < float64(b+1)*50 {
						want++
					}
				}
				calls := inj.calls.Load()
				if got := int(calls - seen); got != want {
					t.Errorf("hook %d saw %d new packets, want bucket %d's %d", b, got, b, want)
				}
				seen = calls
			})

			if len(fired) != 3 || fired[0] != 100 || fired[1] != 250 || fired[2] != 9999 {
				t.Errorf("schedule order = %v", fired)
			}
			for i, b := range hooks {
				if b != i {
					t.Fatalf("hook sequence %v not consecutive from 0", hooks)
				}
			}
			if len(hooks) != len(res.Forwarded.Values) {
				t.Errorf("hooks fired %d times for %d buckets", len(hooks), len(res.Forwarded.Values))
			}
			// Port swap at 250 ms: buckets 0-4 hold events with AtMs < 250
			// (port 2 only); buckets 5+ hold events at or after the barrier
			// (port 3 only).
			p2, p3 := res.PerPort[2], res.PerPort[3]
			if p2 == nil || p3 == nil {
				t.Fatal("expected traffic on ports 2 and 3")
			}
			for b := 0; b < 5; b++ {
				if p3.Values[b] != 0 {
					t.Errorf("port 3 saw traffic in bucket %d, before the swap barrier", b)
				}
			}
			for b := 5; b < len(p2.Values); b++ {
				if p2.Values[b] != 0 {
					t.Errorf("port 2 saw traffic in bucket %d, after the swap barrier", b)
				}
			}
		})
	}
}

// slowInjector burns deterministic CPU per packet so the scaling smoke test
// has compute to parallelize.
type slowInjector struct{ sink atomic.Uint64 }

func (f *slowInjector) Inject(p *pkt.Packet, port int) rmt.Result {
	h := uint64(p.FiveTuple().SrcIP)
	for i := 0; i < 400; i++ {
		h = h*1099511628211 + 1
	}
	f.sink.Add(h | 1)
	return rmt.Result{Verdict: rmt.VerdictForwarded, OutPort: 2, Packet: p}
}

// TestReplayParallelScalingSmoke reports the measured speedup of 4 workers
// over 1 on a CPU-bound injector. Informational on small machines (the CI
// floor is enforced by the benchmark suite on multicore hardware); it only
// fails if parallel replay is catastrophically slower than serial.
func TestReplayParallelScalingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling smoke skipped in -short mode")
	}
	cfg := DefaultConfig()
	cfg.DurationMs = 300
	tr := Generate(cfg)

	measure := func(workers int) time.Duration {
		start := time.Now()
		ReplayParallel(tr, PerPacket((&slowInjector{}).Inject), nil, 50, workers)
		return time.Since(start)
	}
	measure(1) // warm up
	t1 := measure(1)
	t4 := measure(4)
	speedup := float64(t1) / float64(t4)
	t.Logf("GOMAXPROCS=%d NumCPU=%d: serial %v, 4 workers %v, speedup %.2fx",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), t1, t4, speedup)
	if runtime.NumCPU() >= 4 && speedup < 1.2 {
		t.Errorf("4-worker replay only %.2fx serial on a %d-CPU machine", speedup, runtime.NumCPU())
	}
	if speedup < 0.25 {
		t.Errorf("parallel replay catastrophically slower than serial: %.2fx", speedup)
	}
	if math.IsNaN(speedup) {
		t.Error("measurement produced NaN")
	}
}
