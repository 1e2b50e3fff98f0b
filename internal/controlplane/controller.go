// Package controlplane is P4runpro's control plane (paper §3.1): it owns a
// provisioned switch, exposes the program lifecycle (deploy / revoke /
// list), performs control-plane memory access through the resource
// manager's address translation, and reports per-operation deployment
// delays combining measured compiler time with the modeled data plane
// update cost.
package controlplane

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"p4runpro/internal/core"
	"p4runpro/internal/costmodel"
	"p4runpro/internal/dataplane"
	"p4runpro/internal/journal"
	"p4runpro/internal/obs"
	"p4runpro/internal/obs/trace"
	"p4runpro/internal/resource"
	"p4runpro/internal/rmt"
	"p4runpro/internal/smt"
	"p4runpro/internal/upgrade"
)

// Controller drives one switch.
type Controller struct {
	SW       *rmt.Switch
	Plane    *dataplane.Plane
	Compiler *core.Compiler

	// jrn, when non-nil, is the attached write-ahead journal state (see
	// journal.go): every mutating operation is journaled before it is
	// applied. Nil when the controller runs without durability — then the
	// mutation paths are exactly as cheap as before the journal existed.
	jrn *jstate

	// Obs is the controller's metrics registry: operation latencies and
	// outcomes recorded here, compiler/solver histograms wired through
	// SetObserver, and scrape-time collectors over the switch's packet-path
	// counters and per-RPB occupancy. Served remotely by the wire
	// protocol's "metrics" verb; see docs/ARCHITECTURE.md for every
	// exported name.
	Obs *obs.Registry

	mDeployNs, mRevokeNs, mMemOpNs             *obs.Histogram
	cDeployOK, cDeployErr                      *obs.Counter
	cRevokeOK, cRevokeErr, cMemOpOK, cMemOpErr *obs.Counter
	cEntries                                   *obs.Counter

	// Versioned-upgrade sessions by program name (see upgrade.go): the
	// active session while an upgrade is in flight, or the most recent
	// terminal one for post-mortem status.
	upMu     sync.Mutex
	upgrades map[string]*upgrade.Session

	mUpgradeCutoverNs                                      *obs.Histogram
	cUpgradeStarted, cUpgradeCommitted, cUpgradeRolledBack *obs.Counter

	// tracer and flight, when set by SetTracing, record per-operation span
	// trees (lock wait, journal commit, apply) and flight-recorder events
	// for every mutating operation. Nil keeps the mutation paths untraced.
	tracer *trace.Tracer
	flight *trace.FlightRecorder
}

// New creates a switch with cfg, provisions the P4runpro data plane once
// (the only reprovisioning the workflow ever needs), and attaches the
// runtime compiler and the metrics registry.
func New(cfg rmt.Config, opt core.Options) (*Controller, error) {
	sw := rmt.New(cfg)
	pl, err := dataplane.Provision(sw)
	if err != nil {
		return nil, err
	}
	ct := &Controller{
		SW: sw, Plane: pl, Compiler: core.NewCompiler(pl, opt),
		upgrades: make(map[string]*upgrade.Session),
	}
	ct.initMetrics()
	return ct, nil
}

// DeployReport quantifies one program deployment (§6.2.1): parsing and
// allocation are measured on this host; the data plane update delay is
// modeled by the calibrated control-channel cost model.
type DeployReport struct {
	Program     string
	ProgramID   uint16
	ParseTime   time.Duration
	AllocTime   time.Duration
	Solver      smt.Stats
	Entries     int
	UpdateDelay time.Duration
	Total       time.Duration
	// Trace is the compiler's span tree for this link (parse, translate,
	// allocate, install), attributing the measured host-side delay. Nil
	// when the deploy ran untraced.
	Trace *trace.Node
}

// Deploy links every program in src and returns one report per program.
// Deployment is atomic per source blob: if any program fails to link, the
// programs linked earlier from the same source are unlinked before Deploy
// returns, so the blob — the unit the fleet places and fails over together
// — is never left half-deployed.
func (ct *Controller) Deploy(src string) ([]DeployReport, error) {
	return ct.DeployCtx(context.Background(), src)
}

// DeployCtx is Deploy under the trace carried by ctx (see do).
func (ct *Controller) DeployCtx(ctx context.Context, src string) (reports []DeployReport, err error) {
	err = ct.do(ctx, ct.deployOp(src, &reports))
	return reports, err
}

func (ct *Controller) deployOp(src string, out *[]DeployReport) *op {
	o := &op{kind: trace.EvDeploy,
		records: []journal.Record{{Op: journal.OpDeploy, Source: src}},
		track:   func() { ct.jrn.trackDeploy(src, *out) }}
	o.apply = func(ctx context.Context) (err error) {
		*out, err = ct.linkBlob(ctx, src)
		if len(*out) > 0 {
			o.subject = (*out)[0].Program
		}
		return err
	}
	return o
}

// linkBlob links one source blob, all of its programs or none.
func (ct *Controller) linkBlob(ctx context.Context, src string) ([]DeployReport, error) {
	start := time.Now()
	lps, err := ct.Compiler.Link(ctx, src)
	if err != nil {
		// Unwind the blob: unlink whatever part of it already made it onto
		// the data plane, newest first, so no partial deployment survives.
		for i := len(lps) - 1; i >= 0; i-- {
			if _, rerr := ct.Compiler.Revoke(lps[i].Name); rerr != nil {
				err = errors.Join(err, fmt.Errorf("unwinding %s: %w", lps[i].Name, rerr))
			}
		}
		observeOp(ct.mDeployNs, ct.cDeployOK, ct.cDeployErr, start, err)
		return nil, err
	}
	reports := make([]DeployReport, 0, len(lps))
	for _, lp := range lps {
		upd := costmodel.LinkUpdateDelay(lp.Stats.EntryCount)
		ct.cEntries.Add(uint64(lp.Stats.EntryCount))
		reports = append(reports, DeployReport{
			Program:     lp.Name,
			ProgramID:   lp.ProgramID,
			ParseTime:   lp.Stats.ParseTime,
			AllocTime:   lp.Stats.AllocTime,
			Solver:      lp.Stats.Solver,
			Entries:     lp.Stats.EntryCount,
			UpdateDelay: upd,
			Total:       lp.Stats.ParseTime + lp.Stats.AllocTime + upd,
			Trace:       lp.Stats.Trace,
		})
	}
	observeOp(ct.mDeployNs, ct.cDeployOK, ct.cDeployErr, start, err)
	return reports, err
}

// Plan reports how every program of src would link on this switch now:
// the deploy path's steps short of installing an entry, run in order
// against the live state under the journal lock, with every reservation
// released before it returns. It installs nothing and journals nothing,
// and it refuses src with the error Deploy would return — on a poisoned
// controller, the poisoning. Without a journal nothing serializes
// mutations, so a concurrent one may see the plan's short-lived
// reservations.
func (ct *Controller) Plan(ctx context.Context, src string) ([]*core.LinkedProgram, error) {
	if jrn := ct.jrn; jrn != nil {
		jrn.mu.Lock()
		defer jrn.mu.Unlock()
		if err := ct.Poisoned(); err != nil {
			return nil, err
		}
	}
	return ct.Compiler.Plan(ctx, src)
}

// RevokeReport quantifies one program termination.
type RevokeReport struct {
	Program     string
	Entries     int
	MemReset    uint32
	UpdateDelay time.Duration
}

// Revoke unlinks a program with consistent deletion ordering.
func (ct *Controller) Revoke(name string) (RevokeReport, error) {
	return ct.RevokeCtx(context.Background(), name)
}

// RevokeCtx is Revoke under the trace carried by ctx.
func (ct *Controller) RevokeCtx(ctx context.Context, name string) (rep RevokeReport, err error) {
	err = ct.do(ctx, ct.revokeOp(name, &rep))
	return rep, err
}

func (ct *Controller) revokeOp(name string, out *RevokeReport) *op {
	return &op{kind: trace.EvRevoke, subject: name,
		records: []journal.Record{{Op: journal.OpRevoke, Name: name}},
		apply:   func(context.Context) (err error) { *out, err = ct.unlink(name); return err },
		track:   func() { ct.jrn.trackRevoke(name) }}
}

// unlink removes one linked program from the data plane.
func (ct *Controller) unlink(name string) (RevokeReport, error) {
	start := time.Now()
	// Destructive operations wait for an in-flight upgrade to settle.
	if st, busy := ct.upgradeInFlight(name); busy {
		err := fmt.Errorf("controlplane: %q has an upgrade in flight (%s); commit or abort it first", name, st)
		observeOp(ct.mRevokeNs, ct.cRevokeOK, ct.cRevokeErr, start, err)
		return RevokeReport{}, err
	}
	st, err := ct.Compiler.Revoke(name)
	observeOp(ct.mRevokeNs, ct.cRevokeOK, ct.cRevokeErr, start, err)
	if err != nil {
		return RevokeReport{}, err
	}
	return RevokeReport{
		Program:     name,
		Entries:     st.EntriesDeleted,
		MemReset:    st.MemWordsReset,
		UpdateDelay: costmodel.RevokeUpdateDelay(st.EntriesDeleted, st.MemWordsReset),
	}, nil
}

// AddCases extends a running program's BRANCH at the given depth with new
// case blocks (incremental update, paper §7), returning modeled update
// delay alongside the new branch IDs.
func (ct *Controller) AddCases(ctx context.Context, program string, branchDepth int, src string) ([]core.AddedCase, time.Duration, error) {
	var added []core.AddedCase
	err := ct.do(ctx, ct.addCasesOp(program, branchDepth, src, &added))
	entries := 0
	for _, a := range added {
		entries += a.Entries
	}
	return added, costmodel.LinkUpdateDelay(entries), err
}

func (ct *Controller) addCasesOp(program string, branchDepth int, src string, out *[]core.AddedCase) *op {
	rec := journal.Record{Op: journal.OpAddCases, Program: program, BranchDepth: branchDepth, Source: src}
	return &op{kind: trace.EvCase, subject: program, detail: "add",
		records: []journal.Record{rec},
		apply: func(context.Context) (err error) {
			*out, err = ct.Compiler.AddCases(program, branchDepth, src)
			return err
		},
		track: func() { ct.jrn.trackCaseOp(program, rec) }}
}

// RemoveCase deletes a runtime-added case branch from a running program.
func (ct *Controller) RemoveCase(ctx context.Context, program string, branchID int) error {
	return ct.do(ctx, ct.removeCaseOp(program, branchID))
}

func (ct *Controller) removeCaseOp(program string, branchID int) *op {
	rec := journal.Record{Op: journal.OpRemoveCase, Program: program, BranchID: branchID}
	return &op{kind: trace.EvCase, subject: program, detail: "remove",
		records: []journal.Record{rec},
		apply:   func(context.Context) error { return ct.Compiler.RemoveCase(program, branchID) },
		track:   func() { ct.jrn.trackCaseOp(program, rec) }}
}

// SetMulticastGroup configures the traffic manager's replication list for
// the MULTICAST primitive. The only possible failure is a journal append
// rejection; without a journal it always succeeds.
func (ct *Controller) SetMulticastGroup(ctx context.Context, group int, ports []int) error {
	return ct.do(ctx, ct.mcastSetOp(group, ports))
}

func (ct *Controller) mcastSetOp(group int, ports []int) *op {
	return &op{kind: trace.EvMcast, subject: strconv.Itoa(group),
		records: []journal.Record{{Op: journal.OpMcastSet, Group: group, Ports: ports}},
		apply:   func(context.Context) error { ct.SW.SetMulticastGroup(group, ports); return nil },
		track:   func() { ct.jrn.trackMcast(group, ports) }}
}

// WriteMemory writes one virtual memory bucket of a linked program,
// translating the virtual address to its physical RPB and offset.
func (ct *Controller) WriteMemory(ctx context.Context, program, mem string, vaddr, value uint32) error {
	return ct.do(ctx, ct.memWriteOp(program, mem, vaddr, value))
}

func (ct *Controller) memWriteOp(program, mem string, vaddr, value uint32) *op {
	return &op{kind: trace.EvMemWrite, subject: program, detail: mem,
		records: []journal.Record{{Op: journal.OpMemWrite, Program: program, Mem: mem, Addr: vaddr, Value: value}},
		apply: func(context.Context) (err error) {
			start := time.Now()
			defer func() { observeOp(ct.mMemOpNs, ct.cMemOpOK, ct.cMemOpErr, start, err) }()
			arr, paddr, err := ct.translate(program, mem, vaddr)
			if err != nil {
				return err
			}
			return arr.Poke(paddr, value)
		}}
}

// ReadMemory reads one virtual memory bucket of a linked program.
func (ct *Controller) ReadMemory(program, mem string, vaddr uint32) (v uint32, err error) {
	start := time.Now()
	defer func() { observeOp(ct.mMemOpNs, ct.cMemOpOK, ct.cMemOpErr, start, err) }()
	arr, paddr, err := ct.translate(program, mem, vaddr)
	if err != nil {
		return 0, err
	}
	return arr.Peek(paddr)
}

// translate resolves a virtual address of a linked program's memory to its
// physical register array and word offset.
func (ct *Controller) translate(program, mem string, vaddr uint32) (*rmt.RegisterArray, uint32, error) {
	b, err := ct.Compiler.Memory(program, mem)
	if err != nil {
		return nil, 0, err
	}
	paddr, err := b.Translate(program, vaddr)
	if err != nil {
		return nil, 0, err
	}
	arr, err := ct.Plane.Array(b.RPB)
	return arr, paddr, err
}

// ReadMemoryRange snapshots [start, start+n) of a program's virtual memory,
// the resource manager's monitoring path.
func (ct *Controller) ReadMemoryRange(program, mem string, start, n uint32) (vals []uint32, err error) {
	t0 := time.Now()
	defer func() { observeOp(ct.mMemOpNs, ct.cMemOpOK, ct.cMemOpErr, t0, err) }()
	if n == 0 {
		return []uint32{}, nil
	}
	b, err := ct.Compiler.Memory(program, mem)
	if err != nil {
		return nil, err
	}
	// Translate both ends, so the whole range lies in the block.
	paddr, err := b.Translate(program, start)
	if err == nil {
		_, err = b.Translate(program, start+n-1)
	}
	if err != nil {
		return nil, err
	}
	arr, err := ct.Plane.Array(b.RPB)
	if err != nil {
		return nil, err
	}
	return arr.Snapshot(paddr, n)
}

// ProgramInfo summarizes a linked program for listings.
type ProgramInfo struct {
	Name      string
	ProgramID uint16
	Depths    int
	Entries   int
	MemWords  uint32
	Passes    int
	Hits      uint64 // packets matched across the program's entries
}

// ProgramHits sums the direct counters of every entry a program owns — how
// much traffic it has processed since linking (filter-table hits count once
// per matched packet; RPB hits count one per executed primitive).
func (ct *Controller) ProgramHits(name string) uint64 {
	all, _ := ct.Compiler.Hits(name)
	return all
}

// ProgramPacketHits counts the packets a program was assigned: the hits of
// its init (filter) entries, which match a packet once, on its first pass
// — unlike ProgramHits, which also counts every executed RPB primitive. It
// is the quantity the telemetry engine turns into a per-program pps rate.
func (ct *Controller) ProgramPacketHits(name string) uint64 {
	_, packets := ct.Compiler.Hits(name)
	return packets
}

// Programs lists the linked programs.
func (ct *Controller) Programs() []ProgramInfo {
	rows := ct.Compiler.Summaries()
	out := make([]ProgramInfo, 0, len(rows))
	for _, r := range rows {
		out = append(out, ProgramInfo{
			Name:      r.Name,
			ProgramID: r.ProgramID,
			Depths:    r.Depths,
			Entries:   r.Entries,
			MemWords:  r.MemWords,
			Passes:    r.Passes,
			Hits:      ct.ProgramHits(r.Name),
		})
	}
	return out
}

// Utilization returns per-RPB dynamic utilization.
func (ct *Controller) Utilization() []resource.Utilization {
	return ct.Compiler.Mgr.Snapshot()
}

// String renders a short status line.
func (ct *Controller) String() string {
	mem, ent := ct.Compiler.Mgr.TotalUtilization()
	return fmt.Sprintf("controller: %d programs, %.1f%% memory, %.1f%% entries",
		len(ct.Compiler.Programs()), mem*100, ent*100)
}
