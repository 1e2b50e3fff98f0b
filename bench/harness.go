package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/core"
	"p4runpro/internal/journal"
	"p4runpro/internal/rmt"
	"p4runpro/internal/wire"
)

// scale holds every size a workload depends on. Work per run is these
// constants plus the time budget, so two commits compared with the same
// flags do the same work.
type scale struct {
	cfg        rmt.Config // switch dimensions
	setups     int        // set-up repetitions behind the setup_s median
	maxDraw    int        // programs generated per fill round
	fullFrom   int        // resident programs from which a deploy counts as "full"
	background int        // background programs resident under switch_dense_churn
	traceMs    int        // generated trace length (100 Mbps: ~18 packets per ms)
	memWords   int        // bulk_wire memory block, read back whole each cycle
	probeIters int        // iterations of each standalone layer probe
}

var fullScale = scale{
	cfg: rmt.DefaultConfig(), setups: 5, maxDraw: 1500, fullFrom: 800,
	background: 1000, traceMs: 450, memWords: 16384, probeIters: 2000,
}

// smokeScale shrinks the switch so a fill round ends in well under a second;
// it exists for bench_test.go and for trying a change quickly.
var smokeScale = func() scale {
	cfg := rmt.DefaultConfig()
	cfg.TableCapacity = 128
	return scale{
		cfg: cfg, setups: 1, maxDraw: 300, fullFrom: 30,
		background: 40, traceMs: 20, memWords: 1024, probeIters: 50,
	}
}()

// Work sizes that do not change with the scale.
const (
	churnPeriod  = 4 * time.Millisecond // switch_dense_churn: one control slot
	upgradeEvery = 10                   // of which the last two in ten upgrade the probe program
	burstSize    = 64                   // packets per InjectBatch burst
	batchSize    = 64                   // programs per deploy.batch, revokes per pipeline flush
	writePairs   = 512
	statusCalls  = 32 // lockstep status calls per bulk_wire cycle
	pipeDepth    = 32 // wire.pipeline_ops_per_s
)

// run is one workload execution: its inputs, its budget, and the tally of
// operations attempted and failed.
type run struct {
	seed    int64
	seconds float64
	sc      scale
	tmp     string    // journals live here, inside the checkout
	out     string    // trace files are written here
	log     io.Writer // human-readable lines

	setupS            []float64 // seconds each set-up took
	attempted, failed int64
	complaints        int
}

// op counts one verified operation; a failed check is counted and the first
// few are printed, never skipped.
func (r *run) op(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if r.complaints++; r.complaints <= 8 {
		fmt.Fprintf(os.Stderr, "bench: FAILED "+format+"\n", args...)
	}
}

// ops counts n operations of which bad failed.
func (r *run) ops(n, bad int64, what string) {
	r.attempted += n
	if bad > 0 {
		r.failed += bad
		fmt.Fprintf(os.Stderr, "bench: FAILED %d of %d %s\n", bad, n, what)
	}
}

func (r *run) note(format string, args ...any) {
	fmt.Fprintf(r.log, format+"\n", args...)
}

func (r *run) budget(share float64) time.Duration {
	return time.Duration(r.seconds * share * float64(time.Second))
}

// setup times one construction of the workload. Every workload builds
// itself sc.setups times in a run and measures on each instance for an equal
// share of the budget: setup_s is then a median of several set-ups, and no
// figure rests on one heap layout.
func (r *run) setup(build func() error) error {
	start := time.Now()
	if err := build(); err != nil {
		return err
	}
	r.setupS = append(r.setupS, time.Since(start).Seconds())
	runtime.GC() // set-up garbage is not the workload's
	return nil
}

// wireCtl is the control path under test: a journaled controller (fsync on
// every append) behind an in-process wire server, and one client connection
// over loopback TCP.
type wireCtl struct {
	ct  *controlplane.Controller
	srv *wire.Server
	c   *wire.Client
	dir string

	closed bool
}

func openWireCtl(r *run) (*wireCtl, error) {
	dir, err := os.MkdirTemp(r.tmp, "journal-")
	if err != nil {
		return nil, err
	}
	w := &wireCtl{dir: dir}
	w.ct, err = controlplane.Recover(dir, r.sc.cfg, core.DefaultOptions(), journal.Options{Sync: journal.SyncAlways})
	if err != nil {
		w.close()
		return nil, err
	}
	w.srv = wire.NewServer(w.ct, nil)
	addr, err := w.srv.Listen("127.0.0.1:0")
	if err != nil {
		w.close()
		return nil, err
	}
	if w.c, err = wire.Dial(addr); err != nil {
		w.close()
		return nil, err
	}
	if _, err := w.c.Status(); err != nil { // first round trip opens the session
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *wireCtl) close() {
	if w.closed {
		return
	}
	w.closed = true
	if w.c != nil {
		w.c.Close()
	}
	if w.srv != nil {
		w.srv.Close()
	}
	if w.ct != nil {
		w.ct.Journal().Close()
	}
	os.RemoveAll(w.dir)
}

// resident parses the program count out of the controller status line.
func resident(status string) int {
	n := -1
	fmt.Sscanf(status, "controller: %d programs", &n)
	return n
}

// us converts a duration to microseconds with its nanosecond digits.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// latencyLine prints a latency sample the way the metrics guide asks:
// median, the highest percentile with ten samples beyond it, and the count.
func (r *run) latencyLine(name, unit string, sample []float64) {
	asc := sorted(sample)
	line := fmt.Sprintf("  %-32s p50 %.1f %s", name, percentile(asc, 0.5), unit)
	if p := tailPercentile(len(asc)); p > 0 {
		line += fmt.Sprintf(", p%g %.1f %s", p*100, percentile(asc, p), unit)
	}
	r.note("%s (n=%d)", line, len(asc))
}

// memCounters reads the allocator and collector counters; the traced runs
// report their deltas.
func memCounters() (mallocs uint64, gcPauseMS float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, float64(ms.PauseTotalNs) / 1e6
}
