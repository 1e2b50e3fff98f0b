// Package upgrade implements hitless versioned program replacement on one
// switch: v2 is linked alongside the live v1, a per-packet version gate at
// the initialization block decides which version newly arriving packets run,
// SALU-resident state migrates from v1 to v2 before any packet can reach it,
// and the whole transition commits (v2 takes over v1's name) or aborts (v2
// vanishes without a trace) as one journaled state machine.
//
// The cutover itself is one atomic epoch publication (dataplane version
// gate): no table entry moves, and a per-packet latch pins recirculating
// packets to their first-pass version so no packet ever executes a mix of v1
// and v2.
package upgrade

import (
	"fmt"
	"sync"
	"time"

	"p4runpro/internal/core"
	"p4runpro/internal/dataplane"
	"p4runpro/internal/faults"
	"p4runpro/internal/lang"
	"p4runpro/internal/rmt"
)

// Fault points in the upgrade path (see internal/faults): armed by the
// chaos suite to prove a failed migration or epoch publication leaves the
// switch serving pure v1.
var (
	fpMigrate      = faults.Register("upgrade.migrate")
	fpEpochPublish = faults.Register("upgrade.epoch.publish")
)

// VersionSuffix marks the internal name v2 is linked under until commit.
const VersionSuffix = "@v2"

// dispatchOwnerSuffix marks the gate's dispatch entries in the init tables.
const dispatchOwnerSuffix = "#upgrade"

// State is the session's position in the upgrade state machine.
type State int

const (
	// StatePrepared: v2 is resident and state-migrated, the dispatch gate
	// is installed, and every packet still runs v1.
	StatePrepared State = iota
	// StateCutover: the published epoch assigns new packets to v2; v1 is
	// still resident and one epoch publication away.
	StateCutover
	// StateCommitted: v1 is revoked and v2 owns the operator-visible name.
	// Terminal.
	StateCommitted
	// StateAborted: v2 is revoked and v1 serves as if nothing happened.
	// Terminal.
	StateAborted
)

func (s State) String() string {
	switch s {
	case StatePrepared:
		return "prepared"
	case StateCutover:
		return "cutover"
	case StateCommitted:
		return "committed"
	case StateAborted:
		return "aborted"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Status is a point-in-time snapshot of one upgrade session.
type Status struct {
	Program       string // operator-visible name (v1 until commit)
	V2Name        string // internal name v2 is linked under
	State         string
	ActiveVersion int // 1 or 2: which version new packets run
	V1PID, V2PID  uint16
	V1Packets     uint64 // packets the gate assigned to v1
	V2Packets     uint64 // packets the gate assigned to v2
	MigratedWords uint32 // SALU words copied v1 -> v2 at prepare
	CutoverNs     int64  // duration of the last epoch publication
}

// Session is one in-flight (or terminal) versioned upgrade of a single
// program on a single switch. All methods are safe for concurrent use.
type Session struct {
	comp  *core.Compiler
	plane *dataplane.Plane

	mu       sync.Mutex
	program  string
	v2name   string
	v1pid    uint16
	v2pid    uint16
	gate     uint32
	state    State
	migrated uint32
	cutover  time.Duration
	dispatch []dispatchRef
}

type dispatchRef struct {
	table *rmt.Table
	id    rmt.EntryID
}

// Prepare links v2 alongside the live program and arms the version gate,
// leaving every packet on v1:
//
//  1. v2src is parsed and must declare exactly one program named like the
//     one being upgraded; it is linked under program+"@v2" with its own
//     init-table filters withheld (deferred), so the gate alone decides
//     which packets reach it.
//  2. SALU state migrates: every memory block sharing a name between the
//     versions is copied word-for-word (up to the smaller size), so v2
//     resumes v1's sketches instead of starting cold.
//  3. One versioned dispatch entry is installed above each of v1's
//     init-table filters; its gate is published pinned to v1.
//
// Any failure unwinds completely — dispatch entries removed, v2 revoked —
// and the switch keeps serving v1 untouched.
func Prepare(comp *core.Compiler, plane *dataplane.Plane, program, v2src string) (*Session, error) {
	lp1, ok := comp.Linked(program)
	if !ok {
		return nil, fmt.Errorf("upgrade: program %q not linked", program)
	}
	file, err := lang.ParseFile(v2src)
	if err != nil {
		return nil, fmt.Errorf("upgrade: parse v2: %w", err)
	}
	if err := lang.Check(file); err != nil {
		return nil, fmt.Errorf("upgrade: check v2: %w", err)
	}
	if len(file.Programs) != 1 {
		return nil, fmt.Errorf("upgrade: v2 source must declare exactly one program, got %d", len(file.Programs))
	}
	prog := file.Programs[0]
	if prog.Name != program {
		return nil, fmt.Errorf("upgrade: v2 declares program %q, want %q", prog.Name, program)
	}
	v2name := program + VersionSuffix
	if _, dup := comp.Linked(v2name); dup {
		return nil, fmt.Errorf("upgrade: %q already has an upgrade in flight", program)
	}
	prog.Name = v2name

	lp2, err := comp.LinkProgramDeferredInit(prog, file.Memories)
	if err != nil {
		return nil, fmt.Errorf("upgrade: link v2: %w", err)
	}

	s := &Session{
		comp:    comp,
		plane:   plane,
		program: program,
		v2name:  v2name,
		v1pid:   lp1.ProgramID,
		v2pid:   lp2.ProgramID,
		state:   StatePrepared,
	}

	unwind := func() {
		for _, d := range s.dispatch {
			_ = d.table.Delete(d.id)
		}
		_, _ = comp.Revoke(v2name)
		if s.gate != 0 {
			plane.RetireVersionGate(s.gate, s.v1pid)
		}
	}

	migrated, err := migrateState(comp, plane, lp1, lp2)
	if err != nil {
		unwind()
		return nil, err
	}
	s.migrated = migrated

	s.gate = plane.NewVersionGate(s.v1pid, s.v2pid)
	inits, err := comp.InitEntries(program)
	if err != nil {
		unwind()
		return nil, err
	}
	owner := program + dispatchOwnerSuffix
	for _, ie := range inits {
		// One priority above v1's own filter: for any packet v1 claims, the
		// dispatch entry wins and the gate decides the version.
		id, err := ie.Table.Insert(ie.Keys, ie.Priority+1, dataplane.ActionVersionedDispatch,
			[]uint32{s.gate}, owner)
		if err != nil {
			unwind()
			return nil, fmt.Errorf("upgrade: install dispatch entry: %w", err)
		}
		s.dispatch = append(s.dispatch, dispatchRef{table: ie.Table, id: id})
	}
	return s, nil
}

// migrateState copies v1's SALU words into v2's same-named blocks (shared
// prefix when sizes differ), reading and writing the physical arrays
// directly. It runs at prepare, before any packet can be gated to v2, so v2
// never observes a partially migrated sketch.
func migrateState(comp *core.Compiler, plane *dataplane.Plane, lp1, lp2 *core.LinkedProgram) (uint32, error) {
	if err := fpMigrate.Check(); err != nil {
		return 0, fmt.Errorf("upgrade: state migration: %w", err)
	}
	b1 := lp1.Blocks()
	var total uint32
	for name, dst := range lp2.Blocks() {
		src, ok := b1[name]
		if !ok {
			continue // new-in-v2 block: starts zeroed
		}
		n := src.Size
		if dst.Size < n {
			n = dst.Size
		}
		from, err := plane.Array(src.RPB)
		if err != nil {
			return total, err
		}
		to, err := plane.Array(dst.RPB)
		if err != nil {
			return total, err
		}
		for i := uint32(0); i < n; i++ {
			v, err := from.Peek(src.Start + i)
			if err != nil {
				return total, err
			}
			if err := to.Poke(dst.Start+i, v); err != nil {
				return total, err
			}
		}
		total += n
	}
	return total, nil
}

// Cutover publishes the epoch assigning newly arriving packets to the given
// version (1 or 2) — one atomic pointer store with no table churn. Flipping
// back to 1 is the data plane half of a rollback.
func (s *Session) Cutover(version int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StatePrepared && s.state != StateCutover {
		return fmt.Errorf("upgrade: %s: cutover in state %s", s.program, s.state)
	}
	pid := s.v1pid
	if version == 2 {
		pid = s.v2pid
	} else if version != 1 {
		return fmt.Errorf("upgrade: %s: no version %d", s.program, version)
	}
	if err := fpEpochPublish.Check(); err != nil {
		return fmt.Errorf("upgrade: %s: epoch publish: %w", s.program, err)
	}
	t0 := time.Now()
	if err := s.plane.PublishEpoch(s.gate, pid); err != nil {
		return err
	}
	s.cutover = time.Since(t0)
	if version == 2 {
		s.state = StateCutover
	} else {
		s.state = StatePrepared
	}
	return nil
}

// Commit finishes the upgrade while the epoch points at v2: v2's own
// init-table filters are enabled (still shadowed by the dispatch entries,
// so nothing changes yet), v1 is revoked with the paper's consistent
// deletion order (the dispatch entries above keep every gated packet on v2
// throughout), the dispatch entries are removed (v2's filters beneath take
// over seamlessly), the gate is retired pinned to v2 for any packet still
// mid-pipeline, and v2 takes over the operator-visible name. The epoch flip
// happened earlier, in Cutover; Commit only retires table state.
func (s *Session) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateCutover {
		return fmt.Errorf("upgrade: %s: commit in state %s (cut over to v2 first)", s.program, s.state)
	}
	if _, err := s.comp.InstallDeferredInit(s.v2name); err != nil {
		return fmt.Errorf("upgrade: %s: enable v2 filters: %w", s.program, err)
	}
	if _, err := s.comp.Revoke(s.program); err != nil {
		return fmt.Errorf("upgrade: %s: revoke v1: %w", s.program, err)
	}
	for _, d := range s.dispatch {
		_ = d.table.Delete(d.id)
	}
	s.dispatch = nil
	s.plane.RetireVersionGate(s.gate, s.v2pid)
	if err := s.comp.Rename(s.v2name, s.program); err != nil {
		return fmt.Errorf("upgrade: %s: promote v2: %w", s.program, err)
	}
	s.state = StateCommitted
	return nil
}

// Abort rolls the upgrade back to pure v1 from any non-terminal state: the
// epoch is pinned back to v1 (so the dispatch entries stop assigning v2
// before anything is deleted), the dispatch entries are removed (v1's own
// filters beneath take over seamlessly), and v2 is revoked and erased.
func (s *Session) Abort() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateCommitted || s.state == StateAborted {
		return fmt.Errorf("upgrade: %s: abort in terminal state %s", s.program, s.state)
	}
	if err := s.plane.PublishEpoch(s.gate, s.v1pid); err != nil {
		return err
	}
	for _, d := range s.dispatch {
		_ = d.table.Delete(d.id)
	}
	s.dispatch = nil
	s.plane.RetireVersionGate(s.gate, s.v1pid)
	if _, err := s.comp.Revoke(s.v2name); err != nil {
		return fmt.Errorf("upgrade: %s: revoke v2: %w", s.program, err)
	}
	s.state = StateAborted
	return nil
}

// State returns the session's current state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Program returns the operator-visible program name under upgrade.
func (s *Session) Program() string { return s.program }

// Status snapshots the session, including the gate's per-version packet
// counters — the per-member health signal a fleet rollout windows over.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	v1p, v2p := s.plane.GateCounts(s.gate)
	active := 1
	if ep, ok := s.plane.GateEpoch(s.gate); ok && ep.Active == s.v2pid && s.v2pid != s.v1pid {
		active = 2
	}
	if s.state == StateCommitted {
		active = 2
	}
	if s.state == StateAborted {
		active = 1
	}
	return Status{
		Program:       s.program,
		V2Name:        s.v2name,
		State:         s.state.String(),
		ActiveVersion: active,
		V1PID:         s.v1pid,
		V2PID:         s.v2pid,
		V1Packets:     v1p,
		V2Packets:     v2p,
		MigratedWords: s.migrated,
		CutoverNs:     s.cutover.Nanoseconds(),
	}
}
