package traffic

import (
	"strconv"
	"sync/atomic"
	"time"

	"p4runpro/internal/obs"
)

// maxTrackedWorkers bounds the per-worker throughput series. Gauges for all
// slots register eagerly in RegisterReplayMetrics (an obs.Registry cannot
// unregister, so lazy per-run registration would leak closures over dead
// state); a replay with more workers still counts every packet in the shared
// window, only the per-worker breakdown saturates.
const maxTrackedWorkers = 16

// Package-level replay telemetry, fed by Replay/ReplayParallel and exposed
// through RegisterReplayMetrics. The cumulative counters (runs, packets)
// accumulate for the daemon's lifetime like every other counter; the
// throughput gauges are windowed rates over obs.Window sample rings that
// reset at the start of each run, so a finished replay's slope never bleeds
// into the next run's live rates. Counters are atomic and windows take only
// a briefly-held mutex once per tick interval, so worker goroutines never
// contend with a metrics scrape.
var (
	replayRuns    obs.Counter // completed replays
	replayPackets obs.Counter // packets injected across all replays
	replayWorkers atomic.Int64

	// replayAllWin tracks total injected packets of the current run;
	// replayWorkerWin[i] tracks worker i's packets. Observed every
	// replayTickEvery packets, reset by beginReplay.
	replayAllWin    = obs.NewWindow(64)
	replayWorkerWin [maxTrackedWorkers]*obs.Window
	replayAllCount  atomic.Uint64
)

// replayTickEvery is the per-worker packet interval between window samples:
// frequent enough that a 1-second scrape sees fresh rates at any realistic
// injection speed, rare enough that the window mutex and clock read are
// invisible next to the pipeline traversal they meter.
const replayTickEvery = 256

func init() {
	for i := range replayWorkerWin {
		replayWorkerWin[i] = obs.NewWindow(64)
	}
}

// beginReplay resets the windowed-rate state for a new run. Called by
// Replay/ReplayParallel before injecting; concurrent replays are not a
// supported configuration (they would share one window), matching the
// package's existing single-replay telemetry semantics.
func beginReplay(workers int) {
	replayWorkers.Store(int64(workers))
	replayAllCount.Store(0)
	replayAllWin.Reset()
	for i := range replayWorkerWin {
		replayWorkerWin[i].Reset()
	}
	now := time.Now()
	replayAllWin.Observe(now, 0)
	n := workers
	if n > maxTrackedWorkers {
		n = maxTrackedWorkers
	}
	for i := 0; i < n; i++ {
		replayWorkerWin[i].Observe(now, 0)
	}
}

// tickReplayWorker records worker w's cumulative packet count into its
// window and the shared run window. done is the worker's total so far.
func tickReplayWorker(w int, done int) {
	now := time.Now()
	total := replayAllCount.Add(replayTickEvery)
	replayAllWin.Observe(now, total)
	if w >= 0 && w < maxTrackedWorkers {
		replayWorkerWin[w].Observe(now, uint64(done))
	}
}

func recordReplay(workers, packets int) {
	replayRuns.Inc()
	replayPackets.Add(uint64(packets))
	replayWorkers.Store(int64(workers))
	// Final sample so the windowed rate covers the run's tail even when the
	// last tick interval was partial.
	replayAllWin.Observe(time.Now(), uint64(packets))
}

// LastReplayWorkers returns the worker count of the most recent replay.
func LastReplayWorkers() int { return int(replayWorkers.Load()) }

// RegisterReplayMetrics exposes replay engine telemetry on a registry: run
// and packet totals, the worker count, the windowed live injection rate of
// the current (or just-finished) run, and a per-worker rate breakdown for
// the first maxTrackedWorkers workers.
func RegisterReplayMetrics(reg *obs.Registry) {
	reg.CounterFunc("p4runpro_replay_runs_total",
		"Completed trace replays.", replayRuns.Value)
	reg.CounterFunc("p4runpro_replay_packets_total",
		"Packets injected by the replay engine.", replayPackets.Value)
	reg.GaugeFunc("p4runpro_replay_workers",
		"Worker goroutines used by the current or most recent replay.",
		func() float64 { return float64(replayWorkers.Load()) })
	reg.GaugeFunc("p4runpro_replay_throughput_pps",
		"Windowed injection rate of the current or most recent replay, packets/sec.",
		replayAllWin.Rate)
	for i := 0; i < maxTrackedWorkers; i++ {
		w := i
		reg.GaugeFunc("p4runpro_replay_worker_pps",
			"Windowed per-worker injection rate, packets/sec.",
			replayWorkerWin[w].Rate, obs.L("worker", strconv.Itoa(w)))
	}
}
