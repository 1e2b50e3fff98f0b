package traffic

import (
	"strings"
	"testing"

	"p4runpro/internal/obs"
)

// TestReplayMetricsResetBetweenRuns: the windowed throughput gauges must
// reflect only the current run — a second replay starts from a reset window
// rather than accumulating the first run's slope.
func TestReplayMetricsResetBetweenRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DurationMs = 500
	tr := Generate(cfg)
	inj := PerPacket(newParallelInjector().Inject)

	ReplayParallel(tr, inj, nil, 50, 4)
	if LastReplayWorkers() != 4 {
		t.Fatalf("workers after parallel run = %d, want 4", LastReplayWorkers())
	}
	firstAll := replayAllWin.Len()
	if firstAll < 2 {
		t.Fatalf("run left %d samples in the shared window, want >= 2", firstAll)
	}
	if v, ok := replayAllWin.Last(); !ok || v == 0 {
		t.Fatalf("shared window last sample = %d,%v", v, ok)
	}

	// beginReplay must wipe every window: a one-worker run only populates
	// worker 0, so stale worker 1..3 samples would prove no reset happened.
	Replay(tr, inj, nil, 50)
	if LastReplayWorkers() != 1 {
		t.Fatalf("workers after serial run = %d, want 1", LastReplayWorkers())
	}
	// beginReplay(1) seeds only worker 0, so any sample in worker 1..15 is
	// stale state from the parallel run.
	for w := 1; w < maxTrackedWorkers; w++ {
		if n := replayWorkerWin[w].Len(); n != 0 {
			t.Fatalf("worker %d window holds %d samples after serial run", w, n)
		}
	}
	if v, _ := replayAllWin.Last(); int(v) != len(tr.Events) {
		t.Fatalf("shared window final sample = %d, want %d", v, len(tr.Events))
	}
}

// TestReplayWorkerGauges: per-worker windowed rates register for the fixed
// worker cap and a parallel run leaves each used worker with samples.
func TestReplayWorkerGauges(t *testing.T) {
	reg := obs.NewRegistry()
	RegisterReplayMetrics(reg)
	body := reg.Prometheus()
	for _, want := range []string{
		`p4runpro_replay_worker_pps{worker="0"}`,
		`p4runpro_replay_worker_pps{worker="15"}`,
		"p4runpro_replay_throughput_pps",
		"p4runpro_replay_runs_total",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}

	cfg := DefaultConfig()
	cfg.DurationMs = 1000
	tr := Generate(cfg)
	ReplayParallel(tr, PerPacket(newParallelInjector().Inject), nil, 50, 4)
	for w := 0; w < 4; w++ {
		if n := replayWorkerWin[w].Len(); n < 1 {
			t.Fatalf("worker %d window empty after parallel run", w)
		}
	}
	// Scraping after the run must not panic and still renders the gauges.
	if body := reg.Prometheus(); !strings.Contains(body, "p4runpro_replay_workers 4") {
		t.Fatalf("worker-count gauge not updated:\n%s", body)
	}
}
