// Command p4rpctl is the runtime CLI for a p4rpd daemon. Each command is
// one row of the commands table and calls one wire verb over the TCP
// control protocol. Run p4rpctl with no arguments for the command list.
//
// Two tracing surfaces share the vocabulary but not the subject: `trace`
// shows the data plane (sampled per-packet postcards), `ops` shows the
// control plane (distributed operation traces and the flight recorder).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"p4runpro/internal/wire"
)

// runFunc runs one command: args are the words after its name, and its
// output goes to w.
type runFunc func(ctx context.Context, c wire.Doer, args []string, w io.Writer) error

// command is one row of the CLI: its one- or two-word name, the argument
// synopsis and help line usage prints, and the fewest arguments it takes.
type command struct {
	name, args, help string
	min              int
	run              runFunc
}

// errUsage reports a command line the row cannot parse.
var errUsage = errors.New("usage")

var commands = []command{
	{"deploy", "<file.p4rp>", "link programs from a source file", 1, call(wire.MethodDeploy,
		func(a *argv) any { return wire.DeployParams{Source: a.file(0)} },
		func(w io.Writer, _ *argv, results []wire.DeployResult) {
			for _, r := range results {
				fmt.Fprintf(w, "linked %s: id=%d entries=%d alloc=%v update=%v total=%v\n",
					r.Program, r.ProgramID, r.Entries, r.AllocTime, r.UpdateDelay, r.Total)
			}
		})},
	{"plan", "<file.p4rp>", "show where a source's programs would link now, installing nothing", 1, call(wire.MethodDeployPlan,
		func(a *argv) any { return wire.DeployParams{Source: a.file(0)} },
		func(w io.Writer, _ *argv, plans []wire.PlanResult) {
			for _, p := range plans {
				fmt.Fprintf(w, "program %s: depths=%d entries=%d passes=%d mem-words=%d\n",
					p.Program, len(p.Placements), p.Entries, p.Passes, p.MemWords)
				tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
				fmt.Fprintln(tw, "  depth\tlogical\tRPB\tpass\tprimitives")
				for _, pl := range p.Placements {
					fmt.Fprintf(tw, "  %d\t%d\t%d\t%d\t%s\n", pl.Depth, pl.Logical, pl.RPB, pl.Pass, strings.Join(pl.Primitives, "; "))
				}
				tw.Flush()
				for _, b := range p.Blocks {
					fmt.Fprintf(w, "  memory %s: RPB %d words [%d,%d)\n", b.Mem, b.RPB, b.Start, b.Start+b.Size)
				}
			}
		})},
	{"revoke", "<program>", "unlink a program", 1, call(wire.MethodRevoke,
		func(a *argv) any { return wire.RevokeParams{Name: a.args[0]} },
		func(w io.Writer, a *argv, r wire.RevokeResult) {
			fmt.Fprintf(w, "revoked %s: entries=%d mem-reset=%d update=%v\n", a.args[0], r.Entries, r.MemReset, r.UpdateDelay)
		})},
	{"list", "", "list linked programs", 0, call(wire.MethodPrograms, nil,
		func(w io.Writer, _ *argv, infos []wire.ProgramInfo) {
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "NAME\tID\tDEPTHS\tENTRIES\tMEM WORDS\tPASSES")
			for _, i := range infos {
				fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\n", i.Name, i.ProgramID, i.Depths, i.Entries, i.MemWords, i.Passes)
			}
			tw.Flush()
		})},
	{"status", "", "controller status line", 0, call(wire.MethodStatus, nil,
		func(w io.Writer, _ *argv, s string) { fmt.Fprintln(w, s) })},
	{"util", "", "per-RPB utilization", 0, call(wire.MethodUtilization, nil,
		func(w io.Writer, _ *argv, rows []wire.UtilizationRow) {
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "RPB\tENTRIES\tMEMORY")
			for _, r := range rows {
				fmt.Fprintf(tw, "%d\t%d/%d\t%d/%d (%.1f%%)\n", r.RPB, r.EntriesUsed, r.EntriesCap, r.MemUsed, r.MemCap, r.MemFrac*100)
			}
			tw.Flush()
		})},
	{"memread", "<prog> <mem> <addr> [count]", "read program memory", 3, call(wire.MethodMemRead,
		func(a *argv) any {
			return wire.MemReadParams{Program: a.args[0], Mem: a.args[1], Addr: a.num(2, 0), Count: a.num(3, 1)}
		},
		func(w io.Writer, a *argv, vals []uint32) { printWords(w, a, vals) })},
	{"memwrite", "<prog> <mem> <addr> <value>", "write program memory", 4, call(wire.MethodMemWrite,
		func(a *argv) any {
			return wire.MemWriteParams{Program: a.args[0], Mem: a.args[1], Addr: a.num(2, 0), Value: a.num(3, 0)}
		}, printOK)},
	{"addcase", "<prog> <branch-depth> <file>", "add case blocks to a running program", 3, call(wire.MethodAddCases,
		func(a *argv) any {
			return wire.AddCasesParams{Program: a.args[0], BranchDepth: int(a.num(1, 0)), Source: a.file(2)}
		},
		func(w io.Writer, _ *argv, res wire.AddCasesResult) {
			fmt.Fprintf(w, "added branches %v: %d entries, update %v\n", res.BranchIDs, res.Entries, res.UpdateDelay)
		})},
	{"removecase", "<prog> <branch-id>", "remove a runtime-added case", 2, call(wire.MethodRemoveCase,
		func(a *argv) any { return wire.RemoveCaseParams{Program: a.args[0], BranchID: int(a.num(1, 0))} },
		printOK)},
	{"mcast", "<group> <port>...", "configure a multicast group", 2, call(wire.MethodMcastSet,
		func(a *argv) any {
			p := wire.McastSetParams{Group: int(a.num(0, 0))}
			for i := 1; i < len(a.args); i++ {
				p.Ports = append(p.Ports, int(a.num(i, 0)))
			}
			return p
		}, printOK)},
	{"snapshot", "", "commit a journal snapshot and compact the WAL", 0, call(wire.MethodSnapshot, nil,
		func(w io.Writer, _ *argv, res wire.SnapshotResult) {
			fmt.Fprintf(w, "snapshot committed: wal=%s segment=%dB\n", res.WalDir, res.SegmentBytes)
		})},
	{"metrics", "[json]", "scrape the daemon's metrics registry", 0, call(wire.MethodMetrics,
		func(a *argv) any { return wire.MetricsParams{Format: a.str(0, "")} },
		func(w io.Writer, _ *argv, res wire.MetricsResult) { fmt.Fprint(w, res.Body) })},
	{"top", "[iterations]", "per-program rate table (default 1 snapshot; 0 = live view)", 0,
		func(ctx context.Context, c wire.Doer, args []string, w io.Writer) error {
			return topLoop(ctx, c, wire.MethodTelemetryPrograms, args, w)
		}},
	{"trace", "[owner] [limit]", `sampled packet postcards, optionally per program (operation traces live under "ops")`, 0,
		call(wire.MethodTelemetryPostcards,
			func(a *argv) any { return wire.TelemetryPostcardsParams{Owner: a.str(0, ""), Limit: int(a.num(1, 0))} },
			printPostcards)},
	{"ops", "[--slow] [--verb v] [--trace <id>] [--flightrec] [--fleet] [limit]",
		`control-plane operation traces, fleet-merged with --fleet (packet postcards live under "trace")`, 0, ops},
	{"upgrade start", "<program> <v2-file.p4rp>", "link v2 beside v1, migrate state; traffic stays on v1", 2, call(wire.MethodUpgradeStart,
		func(a *argv) any { return wire.UpgradeStartParams{Program: a.args[0], Source: a.file(1)} },
		printUpgrade)},
	{"upgrade cutover", "<program> [1|2]", "atomically switch which version new packets run", 1, call(wire.MethodUpgradeCutover,
		func(a *argv) any { return wire.UpgradeCutoverParams{Program: a.args[0], Version: int(a.num(1, 2))} },
		printUpgrade)},
	{"upgrade commit", "<program>", "retire v1; v2 takes over the program name", 1,
		call(wire.MethodUpgradeCommit, upgradeName, printUpgrade)},
	{"upgrade abort", "<program>", "roll back to v1 and unlink v2", 1,
		call(wire.MethodUpgradeAbort, upgradeName, printUpgrade)},
	{"upgrade status", "<program>", "session state and per-version packet counts", 1,
		call(wire.MethodUpgradeStatus, upgradeName, printUpgrade)},
	{"fleet deploy", "<file.p4rp> [replicas]", "place a unit on the fleet", 1, call(wire.MethodFleetDeploy,
		func(a *argv) any { return wire.FleetDeployParams{Source: a.file(0), Replicas: int(a.num(1, 0))} },
		func(w io.Writer, _ *argv, results []wire.FleetDeployResult) {
			for _, r := range results {
				fmt.Fprintf(w, "deployed unit %s: programs=%v members=%v entries=%d mem-words=%d\n",
					r.Unit, r.Programs, r.Members, r.Entries, r.MemWords)
			}
		})},
	{"fleet revoke", "<program>", "revoke a unit everywhere", 1, call(wire.MethodFleetRevoke,
		func(a *argv) any { return wire.FleetRevokeParams{Name: a.args[0]} },
		func(w io.Writer, _ *argv, r wire.FleetRevokeResult) {
			fmt.Fprintf(w, "revoked unit %s: programs=%v members=%v\n", r.Unit, r.Programs, r.Members)
		})},
	{"fleet list", "", "programs with replica placement", 0, call(wire.MethodFleetPrograms, nil,
		func(w io.Writer, _ *argv, infos []wire.FleetProgramInfo) {
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "NAME\tUNIT\tREPLICAS\tMEMBERS\tENTRIES\tMEM WORDS\tHITS")
			for _, i := range infos {
				fmt.Fprintf(tw, "%s\t%s\t%d/%d\t%v\t%d\t%d\t%d\n",
					i.Name, i.Unit, i.Replicas, i.Desired, i.Members, i.Entries, i.MemWords, i.Hits)
			}
			tw.Flush()
		})},
	{"fleet members", "", "member health and occupancy", 0, call(wire.MethodFleetMembers, nil,
		func(w io.Writer, _ *argv, members []wire.FleetMemberInfo) {
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "MEMBER\tSTATE\tPROGRAMS\tMEM\tENTRIES\tLAST PROBE\tLAST ERROR")
			for _, m := range members {
				fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f%%\t%.1f%%\t%v ago\t%s\n",
					m.Name, m.State, m.Programs, m.MemFrac*100, m.EntryFrac*100, m.LastProbeAge, m.LastError)
			}
			tw.Flush()
		})},
	{"fleet util", "", "per-member per-RPB utilization", 0, call(wire.MethodFleetUtilization, nil,
		func(w io.Writer, _ *argv, rows []wire.FleetUtilRow) {
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			fmt.Fprintln(tw, "MEMBER\tRPB\tENTRIES\tMEMORY")
			for _, mr := range rows {
				for _, r := range mr.Rows {
					fmt.Fprintf(tw, "%s\t%d\t%d/%d\t%d/%d (%.1f%%)\n",
						mr.Member, r.RPB, r.EntriesUsed, r.EntriesCap, r.MemUsed, r.MemCap, r.MemFrac*100)
				}
			}
			tw.Flush()
		})},
	{"fleet memread", "<prog> <mem> <addr> [count] [sum|max|first]", "aggregate memory across replicas", 3, call(wire.MethodFleetMemRead,
		func(a *argv) any {
			return wire.FleetMemReadParams{Program: a.args[0], Mem: a.args[1], Addr: a.num(2, 0), Count: a.num(3, 1), Agg: a.str(4, "")}
		},
		func(w io.Writer, a *argv, res wire.FleetMemReadResult) {
			printWords(w, a, res.Values)
			fmt.Fprintf(w, "aggregated %q over %d replicas\n", res.Agg, res.Replicas)
		})},
	{"fleet top", "[iterations]", "fleet-wide per-program rate table", 0,
		func(ctx context.Context, c wire.Doer, args []string, w io.Writer) error {
			return topLoop(ctx, c, wire.MethodFleetTop, args, w)
		}},
	{"fleet upgrade", "<program> <v2-file.p4rp> [canaries] [soak-ms]", "health-gated rolling upgrade of a unit", 2,
		func(ctx context.Context, c wire.Doer, args []string, w io.Writer) error {
			a := argv{args: args}
			p := wire.FleetUpgradeParams{Name: args[0], Source: a.file(1), Canaries: int(a.num(2, 0)), SoakMs: int64(a.num(3, 0))}
			if a.err != nil {
				return a.err
			}
			res, err := wire.Call[wire.FleetUpgradeResult](ctx, c, wire.MethodFleetUpgrade, p)
			if err != nil {
				return err
			}
			if res.RolledBack {
				return fmt.Errorf("upgrade of %s ROLLED BACK after %d waves: %s", res.Unit, res.Waves, res.Reason)
			}
			fmt.Fprintf(w, "upgraded %s in %d waves: committed=%v", res.Unit, res.Waves, res.Committed)
			if len(res.Pinned) > 0 {
				fmt.Fprintf(w, " pinned-to-v1=%v", res.Pinned)
			}
			fmt.Fprintln(w)
			return nil
		}},
}

func main() {
	addr := flag.String("addr", "127.0.0.1:9800", "daemon address")
	flag.Parse()
	os.Exit(run(*addr, flag.Args()))
}

// run executes one command line and returns the exit status: 2 when no row
// accepts the line (decided before dialing), 1 when the command fails.
func run(addr string, args []string) int {
	cmd, rest := lookup(args)
	if cmd == nil || len(rest) < cmd.min {
		usage(os.Stderr)
		return 2
	}
	c, err := wire.Dial(addr)
	if err == nil {
		defer c.Close()
		err = cmd.run(context.Background(), c, rest, os.Stdout)
	}
	switch {
	case errors.Is(err, errUsage):
		usage(os.Stderr)
		return 2
	case err != nil:
		fmt.Fprintln(os.Stderr, "p4rpctl:", err)
		return 1
	}
	return 0
}

// lookup finds the row named by the first two words of args, else by the
// first one, and returns it with the arguments after its name.
func lookup(args []string) (*command, []string) {
	for n := min(2, len(args)); n > 0; n-- {
		name := strings.Join(args[:n], " ")
		for i := range commands {
			if commands[i].name == name {
				return &commands[i], args[n:]
			}
		}
	}
	return nil, nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: p4rpctl [-addr host:9800] <command>\ncommands:")
	for _, c := range commands {
		synopsis := c.name + " " + c.args
		if len(synopsis) > 40 {
			fmt.Fprintf(w, "  %s\n  %40s", synopsis, "")
		} else {
			fmt.Fprintf(w, "  %-40s", synopsis)
		}
		fmt.Fprintf(w, " %s\n", c.help)
	}
}

// call builds the run of a row that calls one verb: params turns the
// arguments into the verb's parameters (nil for a verb without any), and
// show prints the verb's typed result.
func call[R any](method string, params func(a *argv) any, show func(w io.Writer, a *argv, r R)) runFunc {
	return func(ctx context.Context, c wire.Doer, args []string, w io.Writer) error {
		a := &argv{args: args}
		var p any
		if params != nil {
			p = params(a)
		}
		if a.err != nil {
			return a.err
		}
		r, err := wire.Call[R](ctx, c, method, p)
		if err != nil {
			return err
		}
		show(w, a, r)
		return nil
	}
}

func upgradeName(a *argv) any { return wire.UpgradeNameParams{Program: a.args[0]} }

// printUpgrade prints the session status every upgrade.* verb answers with.
func printUpgrade(w io.Writer, _ *argv, st wire.UpgradeStatusResult) {
	fmt.Fprintf(w, "%s: state=%s active=v%d v1=pid%d v2=pid%d (%s) pkts v1=%d v2=%d migrated=%d words cutover=%v\n",
		st.Program, st.State, st.ActiveVersion, st.V1PID, st.V2PID, st.V2Name,
		st.V1Packets, st.V2Packets, st.MigratedWords, time.Duration(st.CutoverNs))
}

// printOK acknowledges a verb whose result carries nothing to show.
func printOK(w io.Writer, _ *argv, _ bool) { fmt.Fprintln(w, "ok") }

// printWords prints memory words read from <mem> starting at <addr>, the
// second and third arguments of both memread rows.
func printWords(w io.Writer, a *argv, vals []uint32) {
	addr := a.num(2, 0)
	for i, v := range vals {
		fmt.Fprintf(w, "%s[%d] = %d (0x%x)\n", a.args[1], addr+uint32(i), v, v)
	}
}

// ops serves the debug.ops / debug.trace / debug.flightrec verbs:
// control-plane operation traces (NOT packet postcards — that is `trace`).
// With --fleet it asks a fleet daemon for the merged view, where each
// member's half of a distributed trace is stitched into the aggregator's.
func ops(ctx context.Context, c wire.Doer, args []string, w io.Writer) error {
	var p wire.OpsParams
	method := wire.MethodDebugOps
	var flightrec bool
	var traceID string
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "--slow":
			p.Slow = true
		case "--fleet":
			method = wire.MethodFleetOps
		case "--flightrec":
			flightrec = true
		case "--trace":
			i++
			if i >= len(args) {
				return errUsage
			}
			traceID = args[i]
		case "--verb":
			i++
			if i >= len(args) {
				return errUsage
			}
			p.Verb = args[i]
		default:
			n, err := parse32(args[i])
			if err != nil {
				return err
			}
			p.Limit = int(n)
		}
	}
	switch {
	case flightrec:
		res, err := wire.Call[wire.FlightRecResult](ctx, c, wire.MethodDebugFlightrec, nil)
		if err != nil {
			return err
		}
		for _, ev := range res.Events {
			line := ev.At + " " + ev.Kind
			if ev.Name != "" {
				line += " name=" + ev.Name
			}
			if ev.Detail != "" {
				line += " detail=" + ev.Detail
			}
			if ev.DurUs != 0 {
				line += " dur=" + (time.Duration(ev.DurUs) * time.Microsecond).String()
			}
			if ev.Err != "" {
				line += " err=" + strconv.Quote(ev.Err)
			}
			if ev.Trace != "" {
				line += " trace=" + ev.Trace
			}
			fmt.Fprintln(w, line)
		}
	case traceID != "":
		tj, err := wire.Call[wire.TraceJSON](ctx, c, wire.MethodDebugTrace, wire.TraceGetParams{ID: traceID})
		if err != nil {
			return err
		}
		printTraceTree(w, tj)
	default:
		res, err := wire.Call[wire.OpsResult](ctx, c, method, p)
		if err != nil {
			return err
		}
		if len(res.Traces) == 0 {
			fmt.Fprintln(w, "no traces recorded (start p4rpd with -trace)")
		}
		for _, tj := range res.Traces {
			printTraceTree(w, tj)
		}
	}
	return nil
}

// printTraceTree renders one trace as an indented span tree with per-span
// latency attribution, children in start order.
func printTraceTree(w io.Writer, tj wire.TraceJSON) {
	remote := ""
	if tj.Remote {
		remote = " (remote root)"
	}
	fmt.Fprintf(w, "trace %s %s %s total=%v%s\n", tj.ID, tj.Verb,
		time.Unix(0, tj.StartNs).Format(time.RFC3339Nano),
		time.Duration(tj.DurUs)*time.Microsecond, remote)
	kids := make(map[string][]wire.SpanJSON)
	for _, sp := range tj.Spans {
		kids[sp.Parent] = append(kids[sp.Parent], sp)
	}
	for _, sps := range kids {
		sort.Slice(sps, func(i, j int) bool { return sps[i].StartNs < sps[j].StartNs })
	}
	seen := make(map[string]bool)
	var walk func(parent, indent string)
	walk = func(parent, indent string) {
		for _, sp := range kids[parent] {
			if seen[sp.ID] {
				continue
			}
			seen[sp.ID] = true
			line := indent + sp.Name + " " + (time.Duration(sp.DurUs) * time.Microsecond).String()
			var tags []string
			for k, v := range sp.Tags {
				tags = append(tags, k+"="+v)
			}
			sort.Strings(tags)
			for _, t := range tags {
				line += " " + t
			}
			fmt.Fprintln(w, line)
			walk(sp.ID, indent+"  ")
		}
	}
	// Roots: spans whose parent is absent from the trace (the root proper,
	// and server-side halves whose parent span lives on the client).
	ids := make(map[string]bool, len(tj.Spans))
	for _, sp := range tj.Spans {
		ids[sp.ID] = true
	}
	for _, sp := range tj.Spans {
		if sp.Parent == "" || !ids[sp.Parent] {
			walk(sp.Parent, "  ")
		}
	}
}

// topLoop renders the per-program rate table method answers, refreshing at
// the daemon's sweep cadence. The optional iteration count 0 loops until
// interrupted; a positive count prints that many frames — one frame (the
// default) is the scriptable mode, with no screen clearing.
func topLoop(ctx context.Context, c wire.Doer, method string, args []string, w io.Writer) error {
	a := argv{args: args}
	iters := int(a.num(0, 1))
	if a.err != nil {
		return a.err
	}
	interactive := iters != 1
	for i := 0; iters == 0 || i < iters; i++ {
		res, err := wire.Call[wire.TelemetryProgramsResult](ctx, c, method, nil)
		if err != nil {
			return err
		}
		if interactive {
			fmt.Fprint(w, "\033[2J\033[H") // clear screen, home cursor
		}
		printTop(w, res)
		if iters != 0 && i == iters-1 {
			break
		}
		ivl := time.Duration(res.IntervalMs) * time.Millisecond
		if ivl <= 0 {
			ivl = time.Second
		}
		time.Sleep(ivl)
	}
	return nil
}

func printTop(w io.Writer, res wire.TelemetryProgramsResult) {
	fmt.Fprintf(w, "switch: %.0f pps injected, %.0f pps forwarded (sweeps=%d, interval=%dms)\n",
		res.SwitchPPS, res.ForwardedPPS, res.Sweeps, res.IntervalMs)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "PROGRAM\tID\tPPS\tHIT%\tHITS\tPKT HITS\tMEM WORDS\tMEM WPS\tENTRIES\tWINDOW")
	for _, r := range res.Rows {
		window := fmt.Sprintf("%d/%.1fs", r.Samples, float64(r.WindowMs)/1000)
		name := r.Program
		if len(r.Members) > 0 {
			name = fmt.Sprintf("%s@%v", r.Program, r.Members)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.1f\t%d\t%d\t%d\t%+.0f\t%d\t%s\n",
			name, r.ProgramID, r.PPS, r.HitRatio*100, r.Hits, r.PacketHits,
			r.MemWords, r.MemGrowthWPS, r.Entries, window)
	}
	tw.Flush()
}

// printPostcards prints the sampled postcards the trace row fetched for
// its optional [owner] argument.
func printPostcards(w io.Writer, a *argv, res wire.TelemetryPostcardsResult) {
	if res.Every == 0 {
		fmt.Fprintln(w, "postcard sampling disabled (start p4rpd with -postcards N)")
		return
	}
	filter := ""
	if owner := a.str(0, ""); owner != "" {
		filter = fmt.Sprintf(" owned by %s", owner)
	}
	fmt.Fprintf(w, "sampling 1/%d packets, ring=%d, recorded=%d; showing %d%s\n",
		res.Every, res.Keep, res.Count, len(res.Postcards), filter)
	for _, pc := range res.Postcards {
		trunc := ""
		if pc.Truncated {
			trunc = " (truncated)"
		}
		fmt.Fprintf(w, "#%d %s in=%d -> %s out=%d passes=%d recircs=%d latency=%s%s\n",
			pc.Seq, pc.Flow, pc.InPort, pc.Verdict, pc.OutPort, pc.Passes, pc.Recircs,
			time.Duration(pc.LatencyNs), trunc)
		for i, h := range pc.Hops {
			match := "default"
			if h.Match {
				match = "entry"
			}
			ownerStr := ""
			if h.Owner != "" {
				ownerStr = " owner=" + h.Owner
			}
			fmt.Fprintf(w, "  hop %d: %s stage %d table=%s action=%s (%s)%s\n",
				i, h.Gress, h.Stage, h.Table, h.Action, match, ownerStr)
		}
	}
}

// argv reads a row's arguments, keeping the first malformed number or
// unreadable file so a row checks one error after reading them all.
type argv struct {
	args []string
	err  error
}

func (a *argv) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

// str returns argument i, or def when there is none.
func (a *argv) str(i int, def string) string {
	if i >= len(a.args) {
		return def
	}
	return a.args[i]
}

// num parses argument i as a number, or returns def when there is none.
func (a *argv) num(i int, def uint32) uint32 {
	if i >= len(a.args) {
		return def
	}
	v, err := parse32(a.args[i])
	a.fail(err)
	return v
}

// file returns the contents of the file argument i names.
func (a *argv) file(i int) string {
	b, err := os.ReadFile(a.args[i])
	a.fail(err)
	return string(b)
}

func parse32(s string) (uint32, error) {
	v, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		return 0, fmt.Errorf("bad number %q: %v", s, err)
	}
	return uint32(v), nil
}
