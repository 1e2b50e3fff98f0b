// Package upgrade implements hitless versioned program replacement on one
// switch: v2 is linked alongside the live v1 with its filters withheld,
// SALU-resident state migrates from v1 to v2 before any packet can reach
// it, and the whole transition commits (v2 takes over v1's name) or aborts
// (v2 vanishes without a trace) as one journaled state machine.
//
// The cutover is plain init-table entries: one batch per table, installed
// one priority above v1's filters, assigns v2's program ID (and retiring
// them hands traffic back to v1). A packet gets its ID once, on its first
// pass, from the one init table it reads, so it runs v1 or v2 whole even if
// the cutover lands while it recirculates.
package upgrade

import (
	"fmt"
	"sync"
	"time"

	"p4runpro/internal/core"
	"p4runpro/internal/dataplane"
	"p4runpro/internal/faults"
	"p4runpro/internal/lang"
)

// Fault points in the upgrade path (see internal/faults): armed by the
// chaos suite to prove a failed migration or cutover leaves the switch
// serving pure v1.
var (
	fpMigrate = faults.Register("upgrade.migrate")
	fpCutover = faults.Register("upgrade.cutover")
)

// VersionSuffix marks the internal name v2 is linked under until commit.
const VersionSuffix = "@v2"

// dispatchOwnerSuffix marks the cutover's dispatch entries in the init
// tables.
const dispatchOwnerSuffix = "#upgrade"

// State is the session's position in the upgrade state machine.
type State int

const (
	// StatePrepared: v2 is resident and state-migrated, and every packet
	// still runs v1.
	StatePrepared State = iota
	// StateCutover: the dispatch entries assign new packets to v2; v1 is
	// still resident and one retirement away.
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
	V1Packets     uint64 // packets v1's filters assigned since prepare
	V2Packets     uint64 // packets the dispatch entries assigned to v2
	MigratedWords uint32 // SALU words copied v1 -> v2 at prepare
	CutoverNs     int64  // duration of the last cutover step
}

// Session is one in-flight (or terminal) versioned upgrade of a single
// program on a single switch. All methods are safe for concurrent use.
type Session struct {
	comp *core.Compiler

	mu       sync.Mutex
	program  string
	v2name   string
	v1pid    uint16
	v2pid    uint16
	state    State
	migrated uint32
	cutover  time.Duration
	// dispatch holds the entries assigning v2 while cut over to it.
	dispatch *core.Installed
	// v1Base is v1's packet count at prepare. v2Pkts banks the hits of
	// retired dispatch entries; at a terminal state v1Pkts and v2Pkts are
	// the final counts.
	v1Base, v1Pkts, v2Pkts uint64
}

// Prepare links v2 alongside the live program, leaving every packet on v1:
//
//  1. v2src is parsed and must declare exactly one program named like the
//     one being upgraded; it is linked under program+"@v2" with its own
//     init-table filters withheld (deferred), so no packet reaches it.
//  2. SALU state migrates: every memory block sharing a name between the
//     versions is copied word-for-word (up to the smaller size), so v2
//     resumes v1's sketches instead of starting cold.
//
// Nothing is installed in the init tables. A failed migration revokes v2,
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
	migrated, err := migrateState(plane, lp1, lp2)
	if err != nil {
		_, _ = comp.Revoke(v2name)
		return nil, err
	}
	_, v1Base := comp.Hits(program)
	return &Session{
		comp:     comp,
		program:  program,
		v2name:   v2name,
		v1pid:    lp1.ProgramID,
		v2pid:    lp2.ProgramID,
		state:    StatePrepared,
		migrated: migrated,
		v1Base:   v1Base,
	}, nil
}

// migrateState copies v1's SALU words into v2's same-named blocks (shared
// prefix when sizes differ), reading and writing the physical arrays
// directly. It runs at prepare, before any packet can reach v2, so v2 never
// observes a partially migrated sketch.
func migrateState(plane *dataplane.Plane, lp1, lp2 *core.LinkedProgram) (uint32, error) {
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

// Cutover moves newly arriving packets to the given version (1 or 2).
// Cutting over to 2 installs, one priority above each of v1's filters, an
// entry assigning v2's program ID: one batch per init table, all or none.
// Cutting back to 1 retires them, the data plane half of a rollback.
func (s *Session) Cutover(version int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StatePrepared && s.state != StateCutover {
		return fmt.Errorf("upgrade: %s: cutover in state %s", s.program, s.state)
	}
	if version != 1 && version != 2 {
		return fmt.Errorf("upgrade: %s: no version %d", s.program, version)
	}
	if err := fpCutover.Check(); err != nil {
		return fmt.Errorf("upgrade: %s: cutover: %w", s.program, err)
	}
	t0 := time.Now()
	if version == 2 && s.dispatch == nil {
		d, err := s.comp.InstallAbove(s.program, s.program+dispatchOwnerSuffix, "set_program", []uint32{uint32(s.v2pid)})
		if err != nil {
			return fmt.Errorf("upgrade: %s: install dispatch entries: %w", s.program, err)
		}
		s.dispatch = d
	} else if version == 1 {
		if err := s.retireDispatch(); err != nil {
			return fmt.Errorf("upgrade: %s: retire dispatch entries: %w", s.program, err)
		}
	}
	s.cutover = time.Since(t0)
	s.state = StatePrepared
	if version == 2 {
		s.state = StateCutover
	}
	return nil
}

// retireDispatch retires the dispatch entries, banking their hits.
func (s *Session) retireDispatch() error {
	s.v2Pkts += s.dispatch.Hits()
	err := s.dispatch.Retire()
	s.dispatch = nil
	return err
}

// Commit finishes the upgrade while cut over to v2: v2's own init-table
// filters are enabled (still shadowed by the dispatch entries, so nothing
// changes yet), v1 is revoked with the paper's consistent deletion order
// (the dispatch entries above keep every packet on v2 throughout), the
// dispatch entries are retired (v2's filters beneath take over
// seamlessly), and v2 takes over the operator-visible name.
func (s *Session) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateCutover {
		return fmt.Errorf("upgrade: %s: commit in state %s (cut over to v2 first)", s.program, s.state)
	}
	if _, err := s.comp.InstallDeferredInit(s.v2name); err != nil {
		return fmt.Errorf("upgrade: %s: enable v2 filters: %w", s.program, err)
	}
	s.v1Pkts, _ = s.packets()
	if _, err := s.comp.Revoke(s.program); err != nil {
		return fmt.Errorf("upgrade: %s: revoke v1: %w", s.program, err)
	}
	_ = s.retireDispatch()
	if err := s.comp.Rename(s.v2name, s.program); err != nil {
		return fmt.Errorf("upgrade: %s: promote v2: %w", s.program, err)
	}
	s.state = StateCommitted
	return nil
}

// Abort rolls the upgrade back to pure v1 from any non-terminal state: the
// dispatch entries are retired (v1's own filters beneath take over
// seamlessly), then v2 is revoked and erased.
func (s *Session) Abort() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateCommitted || s.state == StateAborted {
		return fmt.Errorf("upgrade: %s: abort in terminal state %s", s.program, s.state)
	}
	if err := s.retireDispatch(); err != nil {
		return fmt.Errorf("upgrade: %s: retire dispatch entries: %w", s.program, err)
	}
	s.v1Pkts, _ = s.packets()
	if _, err := s.comp.Revoke(s.v2name); err != nil {
		return fmt.Errorf("upgrade: %s: revoke v2: %w", s.program, err)
	}
	s.state = StateAborted
	return nil
}

// packets returns the per-version packet counts: v1's as its filters' hits
// since prepare, v2's as the dispatch entries' hits, live and banked. Once
// the session is terminal both are final.
func (s *Session) packets() (v1, v2 uint64) {
	if s.state == StateCommitted || s.state == StateAborted {
		return s.v1Pkts, s.v2Pkts
	}
	if _, h := s.comp.Hits(s.program); h > s.v1Base {
		v1 = h - s.v1Base
	}
	return v1, s.v2Pkts + s.dispatch.Hits()
}

// State returns the session's current state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Status snapshots the session, including its per-version packet counts —
// the per-member health signal a fleet rollout windows over.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	v1p, v2p := s.packets()
	active := 1
	if s.state == StateCutover || s.state == StateCommitted {
		active = 2
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
