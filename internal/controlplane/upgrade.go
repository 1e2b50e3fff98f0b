// Versioned program upgrades at the controller: journaled wrappers around
// the internal/upgrade session state machine. Each transition — prepare,
// cutover, commit, abort — is one write-ahead journal record, so a crash
// mid-upgrade recovers to a consistent version: an upgrade whose commit
// record never made it to disk replays back to the prepared (or cut-over)
// state, and one whose commit landed replays all the way to v2.
package controlplane

import (
	"context"
	"fmt"
	"time"

	"p4runpro/internal/faults"
	"p4runpro/internal/journal"
	"p4runpro/internal/obs/trace"
	"p4runpro/internal/upgrade"
)

// fpUpgradeCommitJournal guards the durable commit of the upgrade record —
// the point where a crash decides whether recovery lands on v1 or v2. The
// chaos suite arms it to prove a failed commit leaves the switch cut over
// but uncommitted, and recovery lands on a single consistent version.
var fpUpgradeCommitJournal = faults.Register("upgrade.journal.commit")

// upgradeInFlight reports the state of name's upgrade session while it is
// still in flight — prepared or cut over, not yet committed or aborted.
func (ct *Controller) upgradeInFlight(name string) (upgrade.State, bool) {
	ct.upMu.Lock()
	defer ct.upMu.Unlock()
	if s, ok := ct.upgrades[name]; ok {
		if st := s.State(); st != upgrade.StateCommitted && st != upgrade.StateAborted {
			return st, true
		}
	}
	return 0, false
}

// upgradeSession returns the program's upgrade session (active or terminal).
func (ct *Controller) upgradeSession(name string) (*upgrade.Session, error) {
	ct.upMu.Lock()
	defer ct.upMu.Unlock()
	s, ok := ct.upgrades[name]
	if !ok {
		return nil, fmt.Errorf("controlplane: no upgrade session for %q", name)
	}
	return s, nil
}

// UpgradePrepare links v2 of a live program alongside v1 with its filters
// withheld and migrates its SALU state; traffic stays on v1 (see
// internal/upgrade). Journaled write-ahead like every mutating operation.
func (ct *Controller) UpgradePrepare(name, v2src string) (upgrade.Status, error) {
	return ct.UpgradePrepareCtx(context.Background(), name, v2src)
}

// UpgradePrepareCtx is UpgradePrepare under the trace carried by ctx.
func (ct *Controller) UpgradePrepareCtx(ctx context.Context, name, v2src string) (st upgrade.Status, err error) {
	err = ct.do(ctx, ct.upgradePrepareOp(name, v2src, &st))
	return st, err
}

func (ct *Controller) upgradePrepareOp(name, v2src string, out *upgrade.Status) *op {
	return &op{kind: trace.EvUpgrade, subject: name, detail: "prepare",
		records: []journal.Record{{Op: journal.OpUpgradePrepare, Name: name, Source: v2src}},
		apply: func(context.Context) error {
			if st, busy := ct.upgradeInFlight(name); busy {
				return fmt.Errorf("controlplane: upgrade of %q already in flight (%s)", name, st)
			}
			s, err := upgrade.Prepare(ct.Compiler, ct.Plane, name, v2src)
			if err != nil {
				return err
			}
			ct.cUpgradeStarted.Inc()
			ct.upMu.Lock()
			ct.upgrades[name] = s
			ct.upMu.Unlock()
			*out = s.Status()
			return nil
		},
		track: func() { ct.jrn.trackUpgradePrepare(name, v2src) }}
}

// UpgradeCutover assigns new packets to the given version (2 to cut over,
// 1 to roll the traffic back): it installs or retires the dispatch entries
// above v1's filters, one atomic batch per init table.
func (ct *Controller) UpgradeCutover(name string, version int) (upgrade.Status, error) {
	return ct.UpgradeCutoverCtx(context.Background(), name, version)
}

// UpgradeCutoverCtx is UpgradeCutover under the trace carried by ctx.
func (ct *Controller) UpgradeCutoverCtx(ctx context.Context, name string, version int) (st upgrade.Status, err error) {
	err = ct.do(ctx, ct.upgradeCutoverOp(name, version, &st))
	return st, err
}

func (ct *Controller) upgradeCutoverOp(name string, version int, out *upgrade.Status) *op {
	detail := "to v2"
	if version == 1 {
		detail = "to v1"
	}
	return &op{kind: trace.EvCutover, subject: name, detail: detail,
		records: []journal.Record{{Op: journal.OpUpgradeCutover, Name: name, Value: uint32(version)}},
		apply: ct.sessionStep(name, out, func(s *upgrade.Session) error {
			t0 := time.Now()
			if err := s.Cutover(version); err != nil {
				return err
			}
			ct.mUpgradeCutoverNs.ObserveDuration(time.Since(t0))
			return nil
		})}
}

// UpgradeCommit finishes the upgrade: v2 takes over the operator-visible
// name and v1 is revoked. The journal record is the durability pivot — once
// it is on disk, recovery replays to v2 even if the process dies mid-apply.
func (ct *Controller) UpgradeCommit(name string) (upgrade.Status, error) {
	return ct.UpgradeCommitCtx(context.Background(), name)
}

// UpgradeCommitCtx is UpgradeCommit under the trace carried by ctx.
func (ct *Controller) UpgradeCommitCtx(ctx context.Context, name string) (st upgrade.Status, err error) {
	err = ct.do(ctx, ct.upgradeCommitOp(name, &st))
	return st, err
}

func (ct *Controller) upgradeCommitOp(name string, out *upgrade.Status) *op {
	return &op{kind: trace.EvUpgrade, subject: name, detail: "commit",
		records: []journal.Record{{Op: journal.OpUpgradeCommit, Name: name}},
		validate: func() error {
			if err := fpUpgradeCommitJournal.Check(); err != nil {
				return fmt.Errorf("controlplane: upgrade commit journal: %w", err)
			}
			return nil
		},
		apply: ct.sessionStep(name, out, func(s *upgrade.Session) error {
			err := s.Commit()
			if err == nil {
				ct.cUpgradeCommitted.Inc()
			}
			return err
		}),
		track: func() { ct.jrn.trackUpgradeCommit(name) }}
}

// UpgradeAbort rolls the upgrade back to pure v1 and erases v2.
func (ct *Controller) UpgradeAbort(ctx context.Context, name string) (st upgrade.Status, err error) {
	err = ct.do(ctx, ct.upgradeAbortOp(name, &st))
	return st, err
}

func (ct *Controller) upgradeAbortOp(name string, out *upgrade.Status) *op {
	return &op{kind: trace.EvUpgrade, subject: name, detail: "abort",
		records: []journal.Record{{Op: journal.OpUpgradeAbort, Name: name}},
		apply: ct.sessionStep(name, out, func(s *upgrade.Session) error {
			err := s.Abort()
			if err == nil {
				ct.cUpgradeRolledBack.Inc()
			}
			return err
		}),
		track: func() { ct.jrn.trackUpgradeAbort(name) }}
}

// sessionStep is the apply shared by the transitions of an existing
// session: look the session up, run step, and report the status it
// reached.
func (ct *Controller) sessionStep(name string, out *upgrade.Status, step func(*upgrade.Session) error) func(context.Context) error {
	return func(context.Context) error {
		s, err := ct.upgradeSession(name)
		if err != nil {
			return err
		}
		if err := step(s); err != nil {
			return err
		}
		*out = s.Status()
		return nil
	}
}

// UpgradeStatus snapshots a program's upgrade session (active or the most
// recent terminal one). Read-only: nothing is journaled.
func (ct *Controller) UpgradeStatus(name string) (upgrade.Status, error) {
	s, err := ct.upgradeSession(name)
	if err != nil {
		return upgrade.Status{}, err
	}
	return s.Status(), nil
}
