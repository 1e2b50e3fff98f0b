package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/core"
	"p4runpro/internal/journal"
	"p4runpro/internal/lang"
	"p4runpro/internal/rmt/compile"
	"p4runpro/internal/wire"
)

// fill_drain: one client over loopback TCP to a journaled controller deploys
// the all-mixed draw one program per request until the first allocation
// refusal, then revokes every program, round after round. Resident programs
// sweep 0 -> full, the axis along which compile, allocate, install and
// recompile cost grows. The packet path does nothing here.

// fillStats holds each round's latencies in issue order: deployUS[k][i] is
// the deploy issued with i programs resident, revokeUS[k][i] the revoke issued
// with i already gone. A round's capacity is the length of its deploy list.
type fillStats struct {
	deployUS, revokeUS  [][]float64
	fillTime, drainTime time.Duration
}

// perSecond is operations per second of a latency list in microseconds.
func perSecond(us []float64) float64 { return float64(len(us)) / (sum(us) / 1e6) }

// fillDrainRound runs one fill and one drain over the wire. The one refusal
// that ends the fill is expected; every other RPC error is a failure.
func fillDrainRound(r *run, c *wire.Client, progs []program, st *fillStats, rec *recorder) {
	names := make([]string, 0, len(progs))
	var deployUS, revokeUS []float64
	refused := false
	fillStart := time.Now()
	for i, p := range progs {
		sp := rec.begin("wire.Client.Deploy", -1, i)
		start := time.Now()
		res, err := c.Deploy(p.src)
		d := time.Since(start)
		rec.end(sp)
		if err != nil {
			var oe *wire.OpError
			refused = errors.As(err, &oe) && strings.Contains(oe.Msg, "cannot allocate")
			r.op(refused, "deploy %s: %v", p.name, err)
			break
		}
		r.op(len(res) == 1 && res[0].Program == p.name && res[0].Entries > 0, "deploy %s: result %+v", p.name, res)
		deployUS = append(deployUS, us(d))
		names = append(names, p.name)
	}
	st.fillTime += time.Since(fillStart)
	st.deployUS = append(st.deployUS, deployUS)
	if !refused {
		r.op(false, "fill ended after %d programs without an allocation refusal", len(names))
	}
	status, err := c.Status()
	r.op(err == nil && resident(status) == len(names), "at refusal: status %q, want %d programs", status, len(names))

	drainStart := time.Now()
	for i, name := range names {
		sp := rec.begin("wire.Client.Revoke", -1, i)
		start := time.Now()
		rep, err := c.Revoke(name)
		d := time.Since(start)
		rec.end(sp)
		r.op(err == nil && rep.Entries > 0, "revoke %s: %+v %v", name, rep, err)
		revokeUS = append(revokeUS, us(d))
	}
	st.drainTime += time.Since(drainStart)
	st.revokeUS = append(st.revokeUS, revokeUS)
	status, err = c.Status()
	r.op(err == nil && resident(status) == 0, "after drain: status %q, want 0 programs", status)
}

func fillDrainE2E(r *run) (map[string]float64, error) {
	var st fillStats
	var last time.Duration
	start := time.Now()
	// A fresh controller per round, the same draw every round: operation i is
	// then the same work in every round (see calmRound). A round takes as long
	// as it takes, so the budget decides how many run; instances beyond that
	// are set up only, for the setup_s median.
	for i := 0; ; i++ {
		// Another round only if about half of it still fits the budget.
		measure := i == 0 || time.Since(start)+last/2 < r.budget(1)
		if !measure && i >= r.sc.setups {
			break
		}
		var w *wireCtl
		var progs []program
		err := r.setup(func() (err error) {
			progs = drawPrograms(r.seed, r.sc.maxDraw)
			w, err = openWireCtl(r)
			return err
		})
		if err != nil {
			return nil, err
		}
		if measure {
			roundStart := time.Now()
			fillDrainRound(r, w.c, progs, &st, nil)
			last = time.Since(roundStart)
		}
		w.close()
	}
	deploys, revokes := calmRound(st.deployUS), calmRound(st.revokeUS)
	if len(deploys) <= r.sc.fullFrom {
		return nil, fmt.Errorf("fill_drain: the shortest fill stopped at %d programs, before the %d that count as full", len(deploys), r.sc.fullFrom)
	}
	capacity, total := len(st.deployUS[0]), 0
	for _, round := range st.deployUS {
		total += len(round)
		r.op(len(round) == capacity, "one draw filled to %d programs, then to %d", capacity, len(round))
	}
	r.note("fill_drain: %d rounds, capacity_programs %d", len(st.deployUS), capacity)
	r.note("  whole-run means: fill %.1f programs/s, drain %.1f programs/s; below, the calm round of %d programs",
		float64(total)/st.fillTime.Seconds(), float64(total)/st.drainTime.Seconds(), len(deploys))
	r.latencyLine("deploy_us", "us", deploys)
	r.latencyLine("deploy_empty_us (<100 resident)", "us", deploys[:min(100, len(deploys))])
	r.latencyLine("deploy_full_us", "us", deploys[r.sc.fullFrom:])
	r.latencyLine("revoke_us", "us", revokes)
	return map[string]float64{
		"setup_s":              median(r.setupS),
		"primary_rate_per_s":   perSecond(deploys),
		"secondary_rate_per_s": perSecond(revokes),
		"primary_p50_us":       median(deploys),
		"secondary_p50_us":     median(deploys[r.sc.fullFrom:]),
	}, nil
}

// fillDrainTraced runs one round untraced and one traced over the wire (the
// difference is the tracing overhead), then walks the same draw through the
// layers' public functions in the order the daemon calls them.
func fillDrainTraced(r *run, rec *recorder) (map[string]float64, error) {
	L := make(map[string]float64)
	progs := drawPrograms(r.seed, r.sc.maxDraw)
	w, err := openWireCtl(r)
	if err != nil {
		return nil, err
	}
	defer w.close()

	_, pause0 := memCounters()
	var plain, traced fillStats
	fillDrainRound(r, w.c, progs, &plain, nil)
	fillDrainRound(r, w.c, progs, &traced, rec)
	capacity := len(plain.deployUS[0])
	L["bench.trace_overhead_share"] = 1 - perSecond(traced.deployUS[0])/perSecond(plain.deployUS[0])
	L["bench.capacity_programs"] = float64(capacity)
	L["bench.revoke_p50_us"] = median(plain.revokeUS[0])
	L["bench.tail_p99_us"] = percentile(sorted(plain.deployUS[0]), 0.99)
	r.op(len(traced.deployUS[0]) == capacity, "one draw filled to %d programs, then to %d", capacity, len(traced.deployUS[0]))
	probeWire(r, w.c, L)
	w.close()

	walked, err := fillWalk(r, rec, progs, L)
	if err != nil {
		return nil, err
	}
	r.op(walked == capacity, "walk refused after %d programs, the daemon after %d", walked, capacity)

	if err := probeJournalBatch(r, L); err != nil {
		return nil, err
	}
	probeTable(r, L)

	// The budget: the layers' medians against the end-to-end median.
	deployP50 := median(traced.deployUS[0])
	layers := L["wire.rtt_us"] + L["wire.request_parse_us"] + L["journal.append_us"] +
		L["lang.parse_us"] + L["lang.translate_us"] + L["core.allocate_us"] +
		L["core.install_us"] + L["compile.recompile_us"]
	L["controlplane.budget_residual_share"] = (deployP50 - layers) / deployP50
	r.note("budget: Client.Deploy p50 %.1f us, layers sum %.1f us", deployP50, layers)
	_, pause1 := memCounters()
	L["go.gc_pause_ms"] = pause1 - pause0
	return L, nil
}

// fillWalk is the daemon's deploy path opened up from outside: request
// encode -> wire.ParseRequest -> Journal.Append -> lang.ParseFile/Check ->
// lang.Translate -> Compiler.Allocate -> Compiler.LinkProgram ->
// compile.Recompile -> response encode, one root span per program, until
// Allocate refuses; then the same programs through Controller.Deploy on a
// plain controller (no wire, no journal), and a drain of both. It returns how
// many programs were linked.
func fillWalk(r *run, rec *recorder, progs []program, L map[string]float64) (int, error) {
	ct, err := controlplane.New(r.sc.cfg, core.DefaultOptions())
	if err != nil {
		return 0, err
	}
	whole, err := controlplane.New(r.sc.cfg, core.DefaultOptions())
	if err != nil {
		return 0, err
	}
	jrn, cleanup, err := openJournal(r)
	if err != nil {
		return 0, err
	}
	defer cleanup()

	var nodes, props, entries int64
	linked := 0
	for i, p := range progs {
		root := rec.begin("op.deploy", -1, i)
		var err error
		// step runs one layer under its own span, unless an earlier one failed.
		step := func(name string, fn func() error) {
			if err != nil {
				return
			}
			sp := rec.begin(name, root, i)
			err = fn()
			rec.end(sp)
		}
		var line []byte
		var dp wire.DeployParams
		var file *lang.File
		var tp *lang.TProgram
		var lp *core.LinkedProgram
		step("wire.encode_request", func() error {
			params, err := json.Marshal(wire.DeployParams{Source: p.src})
			if err != nil {
				return err
			}
			line, err = json.Marshal(wire.Request{ID: int64(i), Method: wire.MethodDeploy, Params: params})
			return err
		})
		step("wire.ParseRequest", func() error {
			req, err := wire.ParseRequest(line)
			if err != nil {
				return err
			}
			return json.Unmarshal(req.Params, &dp)
		})
		step("journal.Append", func() error {
			return jrn.Append(journal.Record{Op: journal.OpDeploy, Source: dp.Source})
		})
		step("lang.ParseFile", func() (err error) {
			if file, err = lang.ParseFile(dp.Source); err != nil {
				return err
			}
			return lang.Check(file)
		})
		step("lang.Translate", func() (err error) {
			tp, err = lang.Translate(file.Programs[0], file.Memories)
			return err
		})
		step("core.Allocate", func() error {
			_, err := ct.Compiler.Allocate(tp)
			return err
		})
		step("core.LinkProgram", func() (err error) {
			lp, err = ct.Compiler.LinkProgram(file.Programs[0], file.Memories)
			return err
		})
		step("compile.Recompile", func() error {
			compile.Recompile(ct.SW)
			return nil
		})
		step("wire.encode_response", func() error {
			result, err := json.Marshal([]wire.DeployResult{{
				Program: lp.Name, ProgramID: lp.ProgramID, Entries: lp.Stats.EntryCount, AllocTime: lp.Stats.AllocTime,
			}})
			if err != nil {
				return err
			}
			_, err = json.Marshal(wire.Response{ID: int64(i), Result: result})
			return err
		})
		rec.end(root)
		var refusal *core.AllocError
		if errors.As(err, &refusal) {
			break // the one that ends the fill
		}
		if err != nil {
			return linked, err
		}
		linked++
		nodes += lp.Stats.Solver.Nodes
		props += lp.Stats.Solver.Propagations
		entries += int64(lp.Stats.EntryCount)
	}
	journalBytes := jrn.SegmentBytes()
	mallocs0, _ := memCounters()
	for i := 0; i < linked; i++ {
		sp := rec.begin("controlplane.Deploy", -1, i)
		_, err := whole.Deploy(progs[i].src)
		rec.end(sp)
		r.op(err == nil, "in-process deploy %s: %v", progs[i].name, err)
	}
	mallocs1, _ := memCounters()
	for i := 0; i < linked; i++ {
		sp := rec.begin("core.Revoke", -1, i)
		_, err := ct.Compiler.Revoke(progs[i].name)
		compile.Recompile(ct.SW)
		rec.end(sp)
		r.op(err == nil, "walk revoke %s: %v", progs[i].name, err)
		sp = rec.begin("controlplane.Revoke", -1, i)
		_, err = whole.Revoke(progs[i].name)
		rec.end(sp)
		r.op(err == nil, "in-process revoke %s: %v", progs[i].name, err)
	}
	if linked == 0 {
		return 0, errors.New("fill walk linked no program")
	}

	by := rec.selfByName()
	p50 := func(name string, fromOp int) float64 { return median(fromOps(by[name], fromOp)) / 1e3 }
	L["wire.request_parse_us"] = p50("wire.ParseRequest", 0)
	L["journal.append_us"] = p50("journal.Append", 0)
	L["journal.bytes_per_deploy"] = float64(journalBytes) / float64(linked)
	L["lang.parse_us"] = p50("lang.ParseFile", 0)
	L["lang.translate_us"] = p50("lang.Translate", 0)
	L["core.allocate_us"] = p50("core.Allocate", 0)
	L["core.allocate_full_us"] = p50("core.Allocate", r.sc.fullFrom)
	L["core.link_us"] = p50("core.LinkProgram", 0)
	L["compile.recompile_us"] = p50("compile.Recompile", 0)
	L["compile.recompile_full_us"] = p50("compile.Recompile", r.sc.fullFrom)
	L["core.revoke_us"] = p50("core.Revoke", 0)
	L["controlplane.deploy_inproc_us"] = p50("controlplane.Deploy", 0)
	L["controlplane.revoke_us"] = p50("controlplane.Revoke", 0)
	// Derived, not timed: LinkProgram translates and allocates again inside.
	translate, allocate := opIndex(by["lang.Translate"]), opIndex(by["core.Allocate"])
	var install []float64
	for _, d := range by["core.LinkProgram"] {
		install = append(install, d.ns-translate[d.op]-allocate[d.op])
	}
	L["core.install_us"] = median(install) / 1e3
	L["smt.nodes_per_deploy"] = float64(nodes) / float64(linked)
	L["smt.propagations_per_deploy"] = float64(props) / float64(linked)
	L["core.entries_per_deploy"] = float64(entries) / float64(linked)
	L["go.allocs_per_deploy"] = float64(mallocs1-mallocs0) / float64(linked)
	return linked, nil
}
