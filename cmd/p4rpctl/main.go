// Command p4rpctl is the runtime CLI for a p4rpd daemon: deploy and revoke
// programs, list them, read and write program memory, and show utilization,
// all over the TCP control protocol.
//
// Usage:
//
//	p4rpctl [-addr host:9800] deploy file.p4rp
//	p4rpctl [-addr host:9800] revoke <program>
//	p4rpctl [-addr host:9800] list
//	p4rpctl [-addr host:9800] status
//	p4rpctl [-addr host:9800] util
//	p4rpctl [-addr host:9800] memread <program> <mem> <addr> [count]
//	p4rpctl [-addr host:9800] memwrite <program> <mem> <addr> <value>
//	p4rpctl [-addr host:9800] snapshot
//	p4rpctl [-addr host:9800] metrics [json]
//	p4rpctl [-addr host:9800] top [iterations]
//	p4rpctl [-addr host:9800] trace [owner] [limit]
//	p4rpctl [-addr host:9800] ops [--slow] [--verb v] [--trace <id>] [--flightrec] [--fleet] [limit]
//	p4rpctl [-addr host:9800] upgrade start|cutover|commit|abort|status ...
//
// Two tracing surfaces share the vocabulary but not the subject: `trace`
// shows the data plane (sampled per-packet postcards), `ops` shows the
// control plane (distributed operation traces and the flight recorder).
//
// Against a fleet daemon (p4rpd -fleet N):
//
//	p4rpctl fleet deploy file.p4rp [replicas]
//	p4rpctl fleet revoke <program>
//	p4rpctl fleet list | members | util | top
//	p4rpctl fleet memread <program> <mem> <addr> [count] [sum|max|first]
//	p4rpctl fleet upgrade <program> file.p4rp [canaries] [soak-ms]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"text/tabwriter"
	"time"

	"p4runpro/internal/wire"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9800", "daemon address")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	c, err := wire.Dial(*addr)
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	switch args[0] {
	case "deploy":
		need(args, 2)
		src, err := os.ReadFile(args[1])
		if err != nil {
			fatal(err)
		}
		results, err := c.Deploy(string(src))
		if err != nil {
			fatal(err)
		}
		for _, r := range results {
			fmt.Printf("linked %s: id=%d entries=%d alloc=%v update=%v total=%v\n",
				r.Program, r.ProgramID, r.Entries, r.AllocTime, r.UpdateDelay, r.Total)
		}
	case "revoke":
		need(args, 2)
		r, err := c.Revoke(args[1])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("revoked %s: entries=%d mem-reset=%d update=%v\n", args[1], r.Entries, r.MemReset, r.UpdateDelay)
	case "list":
		infos, err := c.Programs()
		if err != nil {
			fatal(err)
		}
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "NAME\tID\tDEPTHS\tENTRIES\tMEM WORDS\tPASSES")
		for _, i := range infos {
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\n", i.Name, i.ProgramID, i.Depths, i.Entries, i.MemWords, i.Passes)
		}
		w.Flush()
	case "status":
		s, err := c.Status()
		if err != nil {
			fatal(err)
		}
		fmt.Println(s)
	case "util":
		rows, err := c.Utilization()
		if err != nil {
			fatal(err)
		}
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "RPB\tENTRIES\tMEMORY")
		for _, r := range rows {
			fmt.Fprintf(w, "%d\t%d/%d\t%d/%d (%.1f%%)\n", r.RPB, r.EntriesUsed, r.EntriesCap, r.MemUsed, r.MemCap, r.MemFrac*100)
		}
		w.Flush()
	case "memread":
		need(args, 4)
		count := uint32(1)
		if len(args) > 4 {
			count = parse32(args[4])
		}
		vals, err := c.ReadMemory(args[1], args[2], parse32(args[3]), count)
		if err != nil {
			fatal(err)
		}
		for i, v := range vals {
			fmt.Printf("%s[%d] = %d (0x%x)\n", args[2], parse32(args[3])+uint32(i), v, v)
		}
	case "memwrite":
		need(args, 5)
		if err := c.WriteMemory(args[1], args[2], parse32(args[3]), parse32(args[4])); err != nil {
			fatal(err)
		}
		fmt.Println("ok")
	case "addcase":
		need(args, 4)
		src, err := os.ReadFile(args[3])
		if err != nil {
			fatal(err)
		}
		res, err := c.AddCases(args[1], int(parse32(args[2])), string(src))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("added branches %v: %d entries, update %v\n", res.BranchIDs, res.Entries, res.UpdateDelay)
	case "removecase":
		need(args, 3)
		if err := c.RemoveCase(args[1], int(parse32(args[2]))); err != nil {
			fatal(err)
		}
		fmt.Println("ok")
	case "snapshot":
		res, err := c.Snapshot()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("snapshot committed: wal=%s segment=%dB\n", res.WalDir, res.SegmentBytes)
	case "metrics":
		format := ""
		if len(args) > 1 {
			format = args[1]
		}
		body, err := c.Metrics(format)
		if err != nil {
			fatal(err)
		}
		fmt.Print(body)
	case "top":
		// top [iterations]: one snapshot by default (scriptable); an
		// explicit 0 refreshes at the daemon's sweep cadence until
		// interrupted.
		iters := 1
		if len(args) > 1 {
			iters = int(parse32(args[1]))
		}
		topLoop(iters, func() (wire.TelemetryProgramsResult, error) { return c.TelemetryPrograms() })
	case "trace":
		owner := ""
		limit := 0
		if len(args) > 1 {
			owner = args[1]
		}
		if len(args) > 2 {
			limit = int(parse32(args[2]))
		}
		res, err := c.TelemetryPostcards(owner, limit)
		if err != nil {
			fatal(err)
		}
		printPostcards(res, owner)
	case "ops":
		opsCmd(c, args[1:])
	case "upgrade":
		need(args, 2)
		upgradeCmd(c, args[1:])
	case "fleet":
		need(args, 2)
		fleetCmd(c, args[1:])
	case "mcast":
		need(args, 3)
		ports := make([]int, 0, len(args)-2)
		for _, a := range args[2:] {
			ports = append(ports, int(parse32(a)))
		}
		if err := c.SetMulticastGroup(int(parse32(args[1])), ports); err != nil {
			fatal(err)
		}
		fmt.Println("ok")
	default:
		usage()
	}
}

// opsCmd serves the debug.ops / debug.trace / debug.flightrec verbs:
// control-plane operation traces (NOT packet postcards — that is `trace`).
// With --fleet it asks a fleet daemon for the merged view, where each
// member's half of a distributed trace is stitched into the aggregator's.
func opsCmd(c *wire.Client, args []string) {
	var p wire.OpsParams
	var fleetView, flightrec bool
	var traceID string
	for i := 0; i < len(args); i++ {
		switch args[i] {
		case "--slow":
			p.Slow = true
		case "--fleet":
			fleetView = true
		case "--flightrec":
			flightrec = true
		case "--trace":
			i++
			if i >= len(args) {
				usage()
			}
			traceID = args[i]
		case "--verb":
			i++
			if i >= len(args) {
				usage()
			}
			p.Verb = args[i]
		default:
			p.Limit = int(parse32(args[i]))
		}
	}
	switch {
	case flightrec:
		res, err := c.DebugFlightrec()
		if err != nil {
			fatal(err)
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
			fmt.Println(line)
		}
	case traceID != "":
		tj, err := c.DebugTrace(traceID)
		if err != nil {
			fatal(err)
		}
		printTraceTree(tj)
	default:
		var res wire.OpsResult
		var err error
		if fleetView {
			res, err = c.FleetOps(p)
		} else {
			res, err = c.DebugOps(p)
		}
		if err != nil {
			fatal(err)
		}
		if len(res.Traces) == 0 {
			fmt.Println("no traces recorded (start p4rpd with -trace)")
			return
		}
		for _, tj := range res.Traces {
			printTraceTree(tj)
		}
	}
}

// printTraceTree renders one trace as an indented span tree with per-span
// latency attribution, children in start order.
func printTraceTree(tj wire.TraceJSON) {
	remote := ""
	if tj.Remote {
		remote = " (remote root)"
	}
	fmt.Printf("trace %s %s %s total=%v%s\n", tj.ID, tj.Verb,
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
			fmt.Println(line)
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

// upgradeCmd serves the upgrade.* verbs: the hitless versioned-upgrade
// lifecycle of one program on a single-switch daemon.
func upgradeCmd(c *wire.Client, args []string) {
	printStatus := func(st wire.UpgradeStatusResult) {
		fmt.Printf("%s: state=%s active=v%d v1=pid%d v2=pid%d (%s) pkts v1=%d v2=%d migrated=%d words cutover=%v\n",
			st.Program, st.State, st.ActiveVersion, st.V1PID, st.V2PID, st.V2Name,
			st.V1Packets, st.V2Packets, st.MigratedWords, time.Duration(st.CutoverNs))
	}
	switch args[0] {
	case "start":
		need(args, 3)
		src, err := os.ReadFile(args[2])
		if err != nil {
			fatal(err)
		}
		st, err := c.UpgradeStart(args[1], string(src))
		if err != nil {
			fatal(err)
		}
		printStatus(st)
	case "cutover":
		need(args, 2)
		version := 2
		if len(args) > 2 {
			version = int(parse32(args[2]))
		}
		st, err := c.UpgradeCutover(args[1], version)
		if err != nil {
			fatal(err)
		}
		printStatus(st)
	case "commit":
		need(args, 2)
		st, err := c.UpgradeCommit(args[1])
		if err != nil {
			fatal(err)
		}
		printStatus(st)
	case "abort":
		need(args, 2)
		st, err := c.UpgradeAbort(args[1])
		if err != nil {
			fatal(err)
		}
		printStatus(st)
	case "status":
		need(args, 2)
		st, err := c.UpgradeStatus(args[1])
		if err != nil {
			fatal(err)
		}
		printStatus(st)
	default:
		usage()
	}
}

// fleetCmd serves the fleet.* verbs against a p4rpd -fleet daemon.
// args[0] is the subcommand ("deploy", "members", ...).
func fleetCmd(c *wire.Client, args []string) {
	switch args[0] {
	case "deploy":
		need(args, 2)
		src, err := os.ReadFile(args[1])
		if err != nil {
			fatal(err)
		}
		replicas := 0
		if len(args) > 2 {
			replicas = int(parse32(args[2]))
		}
		results, err := c.FleetDeploy(string(src), replicas)
		if err != nil {
			fatal(err)
		}
		for _, r := range results {
			fmt.Printf("deployed unit %s: programs=%v members=%v entries=%d mem-words=%d\n",
				r.Unit, r.Programs, r.Members, r.Entries, r.MemWords)
		}
	case "revoke":
		need(args, 2)
		r, err := c.FleetRevoke(args[1])
		if err != nil {
			fatal(err)
		}
		fmt.Printf("revoked unit %s: programs=%v members=%v\n", r.Unit, r.Programs, r.Members)
	case "list":
		infos, err := c.FleetPrograms()
		if err != nil {
			fatal(err)
		}
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "NAME\tUNIT\tREPLICAS\tMEMBERS\tENTRIES\tMEM WORDS\tHITS")
		for _, i := range infos {
			fmt.Fprintf(w, "%s\t%s\t%d/%d\t%v\t%d\t%d\t%d\n",
				i.Name, i.Unit, i.Replicas, i.Desired, i.Members, i.Entries, i.MemWords, i.Hits)
		}
		w.Flush()
	case "members":
		members, err := c.FleetMembers()
		if err != nil {
			fatal(err)
		}
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "MEMBER\tSTATE\tPROGRAMS\tMEM\tENTRIES\tLAST PROBE\tLAST ERROR")
		for _, m := range members {
			fmt.Fprintf(w, "%s\t%s\t%d\t%.1f%%\t%.1f%%\t%v ago\t%s\n",
				m.Name, m.State, m.Programs, m.MemFrac*100, m.EntryFrac*100, m.LastProbeAge, m.LastError)
		}
		w.Flush()
	case "util":
		rows, err := c.FleetUtilization()
		if err != nil {
			fatal(err)
		}
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "MEMBER\tRPB\tENTRIES\tMEMORY")
		for _, mr := range rows {
			for _, r := range mr.Rows {
				fmt.Fprintf(w, "%s\t%d\t%d/%d\t%d/%d (%.1f%%)\n",
					mr.Member, r.RPB, r.EntriesUsed, r.EntriesCap, r.MemUsed, r.MemCap, r.MemFrac*100)
			}
		}
		w.Flush()
	case "top":
		iters := 1
		if len(args) > 1 {
			iters = int(parse32(args[1]))
		}
		topLoop(iters, func() (wire.TelemetryProgramsResult, error) { return c.FleetTop() })
	case "upgrade":
		need(args, 3)
		src, err := os.ReadFile(args[2])
		if err != nil {
			fatal(err)
		}
		p := wire.FleetUpgradeParams{Name: args[1], Source: string(src)}
		if len(args) > 3 {
			p.Canaries = int(parse32(args[3]))
		}
		if len(args) > 4 {
			p.SoakMs = int64(parse32(args[4]))
		}
		res, err := c.FleetUpgrade(p)
		if err != nil {
			fatal(err)
		}
		if res.RolledBack {
			fmt.Printf("upgrade of %s ROLLED BACK after %d waves: %s\n", res.Unit, res.Waves, res.Reason)
			os.Exit(1)
		}
		fmt.Printf("upgraded %s in %d waves: committed=%v", res.Unit, res.Waves, res.Committed)
		if len(res.Pinned) > 0 {
			fmt.Printf(" pinned-to-v1=%v", res.Pinned)
		}
		fmt.Println()
	case "memread":
		need(args, 4)
		count := uint32(1)
		if len(args) > 4 {
			count = parse32(args[4])
		}
		agg := ""
		if len(args) > 5 {
			agg = args[5]
		}
		res, err := c.FleetMemRead(args[1], args[2], parse32(args[3]), count, agg)
		if err != nil {
			fatal(err)
		}
		for i, v := range res.Values {
			fmt.Printf("%s[%d] = %d (0x%x)\n", args[2], parse32(args[3])+uint32(i), v, v)
		}
		fmt.Printf("aggregated %q over %d replicas\n", res.Agg, res.Replicas)
	default:
		usage()
	}
}

// topLoop renders the per-program rate table, refreshing at the daemon's
// sweep cadence. iters 0 loops until interrupted; a positive count prints
// that many frames — one frame (the default) is the scriptable mode, with
// no screen clearing.
func topLoop(iters int, fetch func() (wire.TelemetryProgramsResult, error)) {
	interactive := iters != 1
	for i := 0; iters == 0 || i < iters; i++ {
		res, err := fetch()
		if err != nil {
			fatal(err)
		}
		if interactive {
			fmt.Print("\033[2J\033[H") // clear screen, home cursor
		}
		printTop(res)
		if iters != 0 && i == iters-1 {
			break
		}
		ivl := time.Duration(res.IntervalMs) * time.Millisecond
		if ivl <= 0 {
			ivl = time.Second
		}
		time.Sleep(ivl)
	}
}

func printTop(res wire.TelemetryProgramsResult) {
	fmt.Printf("switch: %.0f pps injected, %.0f pps forwarded (sweeps=%d, interval=%dms)\n",
		res.SwitchPPS, res.ForwardedPPS, res.Sweeps, res.IntervalMs)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "PROGRAM\tID\tPPS\tHIT%\tHITS\tPKT HITS\tMEM WORDS\tMEM WPS\tENTRIES\tWINDOW")
	for _, r := range res.Rows {
		window := fmt.Sprintf("%d/%.1fs", r.Samples, float64(r.WindowMs)/1000)
		name := r.Program
		if len(r.Members) > 0 {
			name = fmt.Sprintf("%s@%v", r.Program, r.Members)
		}
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%.1f\t%d\t%d\t%d\t%+.0f\t%d\t%s\n",
			name, r.ProgramID, r.PPS, r.HitRatio*100, r.Hits, r.PacketHits,
			r.MemWords, r.MemGrowthWPS, r.Entries, window)
	}
	w.Flush()
}

func printPostcards(res wire.TelemetryPostcardsResult, owner string) {
	if res.Every == 0 {
		fmt.Println("postcard sampling disabled (start p4rpd with -postcards N)")
		return
	}
	filter := ""
	if owner != "" {
		filter = fmt.Sprintf(" owned by %s", owner)
	}
	fmt.Printf("sampling 1/%d packets, ring=%d, recorded=%d; showing %d%s\n",
		res.Every, res.Keep, res.Count, len(res.Postcards), filter)
	for _, pc := range res.Postcards {
		trunc := ""
		if pc.Truncated {
			trunc = " (truncated)"
		}
		fmt.Printf("#%d %s in=%d -> %s out=%d passes=%d recircs=%d latency=%s%s\n",
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
			fmt.Printf("  hop %d: %s stage %d table=%s action=%s (%s)%s\n",
				i, h.Gress, h.Stage, h.Table, h.Action, match, ownerStr)
		}
	}
}

func need(args []string, n int) {
	if len(args) < n {
		usage()
	}
}

func parse32(s string) uint32 {
	v, err := strconv.ParseUint(s, 0, 32)
	if err != nil {
		fatal(fmt.Errorf("bad number %q: %v", s, err))
	}
	return uint32(v)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: p4rpctl [-addr host:9800] <command>
commands:
  deploy <file.p4rp>                       link programs from a source file
  revoke <program>                         unlink a program
  list                                     list linked programs
  status                                   controller status line
  util                                     per-RPB utilization
  memread <prog> <mem> <addr> [count]      read program memory
  memwrite <prog> <mem> <addr> <value>     write program memory
  addcase <prog> <branch-depth> <file>     add case blocks to a running program
  removecase <prog> <branch-id>            remove a runtime-added case
  mcast <group> <port>...                  configure a multicast group
  snapshot                                 commit a journal snapshot and compact the WAL
  metrics [json]                           scrape the daemon's metrics registry
  top [iterations]                         per-program rate table (default 1 snapshot; 0 = live view)
  trace [owner] [limit]                    sampled packet postcards, optionally per program
                                           (control-plane operation traces live under "ops")
  ops [--slow] [--verb v] [limit]          recent (or slowest-per-verb) control-plane traces
  ops --trace <id>                         one trace's full span tree by 32-hex id
  ops --flightrec                          dump the daemon's flight recorder
  ops --fleet ...                          fleet-merged traces (against p4rpd -fleet)
                                           (packet postcards live under "trace")
upgrade commands (hitless versioned replacement of a running program):
  upgrade start <program> <v2-file.p4rp>   link v2 beside v1, migrate state, gate on v1
  upgrade cutover <program> [1|2]          atomically switch which version new packets run
  upgrade commit <program>                 retire v1; v2 takes over the program name
  upgrade abort <program>                  roll back to v1 and unlink v2
  upgrade status <program>                 session state and per-version packet counts
fleet commands (against p4rpd -fleet):
  fleet deploy <file.p4rp> [replicas]      place a unit on the fleet
  fleet revoke <program>                   revoke a unit everywhere
  fleet list                               programs with replica placement
  fleet members                            member health and occupancy
  fleet util                               per-member per-RPB utilization
  fleet memread <prog> <mem> <addr> [count] [sum|max|first]
                                           aggregate memory across replicas
  fleet top [iterations]                   fleet-wide per-program rate table
  fleet upgrade <program> <v2-file.p4rp> [canaries] [soak-ms]
                                           health-gated rolling upgrade of a unit`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "p4rpctl:", err)
	os.Exit(1)
}
