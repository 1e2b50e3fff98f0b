// Command bench is the repository's benchmark: four workloads over the
// control path (wire -> journal -> compiler -> tables) and the packet path
// (packet -> switch -> fabric), each run in its own process, verified, and
// reported as the end-to-end metrics of BENCHMARK.json (-trace 0) or, from a
// separate traced run, as its per-layer metrics (-trace 1). See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type workload struct {
	e2e    func(*run) (map[string]float64, error)
	traced func(*run, *recorder) (map[string]float64, error)
}

var workloads = map[string]workload{
	"fill_drain":         {fillDrainE2E, fillDrainTraced},
	"fabric_sparse":      {fabricSparseE2E, fabricSparseTraced},
	"switch_dense_churn": {switchDenseChurnE2E, switchDenseChurnTraced},
	"bulk_wire":          {bulkWireE2E, bulkWireTraced},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the object printed as the last line of standard output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is one run as kept in a result file.
type result struct {
	Workload string  `json:"workload"`
	Trace    int     `json:"trace"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	WallS    float64 `json:"wall_s"`
	outcome

	reported map[string]bool // the metrics the workload measured itself
}

// resultFile is what -all writes and -compare reads.
type resultFile struct {
	Stamp stamp    `json:"stamp"`
	Runs  []result `json:"runs"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: fill_drain, fabric_sparse, switch_dense_churn or bulk_wire")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", 0, "measurement budget in seconds (default: run_seconds of BENCHMARK.json)")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
		all     = flag.Bool("all", false, "run every workload in both modes, each in its own process")
		repeat  = flag.Int("repeat", 1, "with -all: runs per workload and mode, on seeds seed, seed+1, ...")
		outPath = flag.String("out", "", "with -all: result file (default bench/out/all.json)")
		compare = flag.Bool("compare", false, "compare two -all result files: bench -compare a.json b.json")
		procs   = flag.Int("procs", 0, "GOMAXPROCS (default min(nproc, 2), the load the harness is sized for)")
		smoke   = flag.Bool("smoke", false, "shrunken switch and inputs, for a quick look; not comparable")
	)
	flag.Parse()
	if err := dispatch(*name, *seed, *seconds, *trace, *all, *repeat, *outPath, *compare, *procs, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func dispatch(name string, seed int64, seconds float64, trace int, all bool, repeat int, outPath string, compare bool, procs int, smoke bool) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	sp, err := loadSpec(root)
	if err != nil {
		return err
	}
	if compare {
		if flag.NArg() != 2 {
			return errors.New("usage: bench -compare a.json b.json")
		}
		return compareFiles(sp, flag.Arg(0), flag.Arg(1))
	}
	if seconds <= 0 {
		seconds = float64(sp.RunSeconds)
	}
	if procs <= 0 {
		procs = defaultProcs()
	}
	runtime.GOMAXPROCS(procs)
	outDir := filepath.Join(root, "bench", "out")
	tmp := filepath.Join(root, ".bench_build", "tmp")
	for _, dir := range []string{outDir, tmp} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	if all {
		if outPath == "" {
			outPath = filepath.Join(outDir, "all.json")
		}
		return runAll(sp, tmp, outPath, seed, seconds, repeat, procs, smoke)
	}
	w, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	r := &run{seed: seed, seconds: seconds, sc: fullScale, tmp: tmp, out: outDir, log: os.Stdout}
	if smoke {
		r.sc = smokeScale
	}
	st := newStamp(tmp)
	fmt.Printf("bench: %s seed=%d seconds=%g trace=%d\n", name, seed, seconds, trace)
	fmt.Printf("  commit %s, %s, %s, nproc %d, GOMAXPROCS %d\n", st.Commit, st.GoVersion, st.CPU, st.NProc, st.GoMaxProcs)
	fmt.Printf("  control channel: %s; journal: fsync on every append, on %s\n", st.Transport, st.JournalFS)
	res, err := runOne(sp, w, name, trace, r)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(resultFile{Stamp: st, Runs: []result{*res}}, "", " ")
	if err != nil {
		return err
	}
	file := filepath.Join(outDir, fmt.Sprintf("%s_trace%d_seed%d.json", name, trace, seed))
	if err := os.WriteFile(file, data, 0o644); err != nil {
		return err
	}
	last, err := json.Marshal(res.outcome)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", last)
	return nil
}

// runOne executes one workload in one mode and checks that it reported
// exactly the metrics BENCHMARK.json declares for that mode.
func runOne(sp *spec, w workload, name string, trace int, r *run) (*result, error) {
	start := time.Now()
	declared := sp.EndToEnd
	var got map[string]float64
	var err error
	if trace == 0 {
		if got, err = w.e2e(r); err == nil {
			got["peak_rss_mb"] = peakRSSMB()
		}
	} else {
		declared = sp.PerLayer
		rec := newRecorder()
		if got, err = w.traced(r, rec); err == nil {
			path := filepath.Join(r.out, "trace_"+name+".json")
			r.note("  %d spans written to %s", len(rec.spans), path)
			err = rec.write(path)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	res := &result{
		Workload: name, Trace: trace, Seed: r.seed, Seconds: r.seconds,
		outcome:  outcome{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)},
		reported: make(map[string]bool),
	}
	for _, m := range declared {
		v, ok := got[m.Name]
		if !ok && trace == 0 {
			return nil, fmt.Errorf("%s did not report %s", name, m.Name)
		}
		// A layer that does no work for this workload reads 0.
		res.Metrics[m.Name] = metric{v, m.Unit}
		res.reported[m.Name] = ok
		delete(got, m.Name)
		r.note("  %-36s %14.4f %s", m.Name, v, m.Unit)
	}
	if len(got) > 0 {
		var extra []string
		for k := range got {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("%s reported metrics BENCHMARK.json does not declare: %s", name, strings.Join(extra, ", "))
	}
	res.WallS = time.Since(start).Seconds()
	r.note("  ops %d, failed %d, wall %.1f s", r.attempted, r.failed, res.WallS)
	return res, nil
}

// runAll runs every workload in both modes, each run a process of its own so
// that peak memory and collector state belong to one workload, and exits
// non-zero if any check failed.
func runAll(sp *spec, tmp, outPath string, seed int64, seconds float64, repeat, procs int, smoke bool) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	file := resultFile{Stamp: newStamp(tmp)}
	var failed int64
	for _, wl := range sp.Workloads {
		for trace := 0; trace <= 1; trace++ {
			for k := 0; k < repeat; k++ {
				args := []string{
					"-workload", wl.Name, "-seed", fmt.Sprint(seed + int64(k)), "-seconds", fmt.Sprint(seconds),
					"-trace", fmt.Sprint(trace), "-procs", fmt.Sprint(procs), fmt.Sprintf("-smoke=%t", smoke),
				}
				start := time.Now()
				cmd := exec.Command(exe, args...)
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				os.Stdout.Write(out)
				if err != nil {
					return fmt.Errorf("%s trace=%d: %w", wl.Name, trace, err)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				res := result{Workload: wl.Name, Trace: trace, Seed: seed + int64(k), Seconds: seconds, WallS: time.Since(start).Seconds()}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res.outcome); err != nil {
					return fmt.Errorf("%s trace=%d: last line is not a result: %w", wl.Name, trace, err)
				}
				failed += res.Failed
				file.Runs = append(file.Runs, res)
			}
		}
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("bench: %d runs written to %s\n", len(file.Runs), outPath)
	if failed > 0 {
		return fmt.Errorf("%d operations failed their checks", failed)
	}
	return nil
}
