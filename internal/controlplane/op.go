// The one operation path. Every mutating verb — deploy, revoke, the case
// updates, multicast, memory writes, the batch verbs and the four upgrade
// phases — is described by an op value and run by Controller.do, which
// alone owns the trace span, the journal lock, the write-ahead append, the
// apply, the wait for durability and the flight-recorder event. Crash
// replay builds the same op from a journal record (opFor), so replay and
// live execution cannot drift apart.
//
// The journal lock is released early: under it an operation validates,
// writes its records (the log order is the apply order), applies and
// updates the snapshot bookkeeping, and it waits for the records to be
// durable only after releasing the lock. So the next operation applies
// while this one syncs, and concurrent operations share one fsync. An
// operation whose kind has lately applied for longer than an fsync takes
// (a deploy at a realistic size links for hundreds of microseconds) hands
// its fsync to the journal's background syncer before it applies, so it
// applies while its record syncs. No caller hears of success before its
// records are durable. Packets and read verbs may briefly see state
// that is not durable yet; the switch and its controller live and die
// together, so a crash loses both.
package controlplane

import (
	"context"
	"fmt"
	"time"

	"p4runpro/internal/core"
	"p4runpro/internal/journal"
	"p4runpro/internal/obs/trace"
	"p4runpro/internal/upgrade"
)

// op is one mutating control-plane operation, live or replayed.
type op struct {
	// kind, subject and detail make up the flight-recorder event. apply may
	// set subject when it is only known afterwards (a deploy's program).
	kind, subject, detail string
	// records is the operation's write-ahead form, committed as one group
	// before apply runs; never empty. The first record's op also names the
	// operation's span: a "ct.<op>" root when the caller is untraced,
	// otherwise the children attach to the caller's span.
	records []journal.Record
	// validate, when set, runs under the journal lock before the append, so
	// an operation that cannot apply whole never reaches the journal and a
	// concurrent mutation cannot invalidate what it resolved.
	validate func() error
	apply    func(ctx context.Context) error
	// track, when set, updates the snapshot bookkeeping after a successful
	// journaled apply.
	track func()
}

// do runs one operation: lock wait, validation, the journal write, the
// apply and the wait for durability become attributed child spans (the
// compiler's link phases nest under apply), and the outcome lands in the
// flight recorder. Without a journal no lock is taken and nothing is
// written — the mutation paths are as cheap as before the journal existed.
func (ct *Controller) do(ctx context.Context, o *op) (err error) {
	ctx, sp, owned := trace.OpSpan(ctx, ct.tracer, "ct.", o.records[0].Op.String())
	start := time.Now()
	defer func() {
		ct.flight.RecordOp(o.kind, o.subject, o.detail, start, err, sp)
		if owned {
			sp.End()
		}
	}()
	c, err := ct.applyLocked(ctx, sp, o)
	if werr := ct.jrn.await(sp, c); err == nil {
		err = werr
	}
	return err
}

// applyLocked runs o under the journal lock — validation, the journal
// write, the apply and the bookkeeping — and returns the commit to wait on
// once the lock is released.
func (ct *Controller) applyLocked(ctx context.Context, sp *trace.Span, o *op) (c *journal.Commit, err error) {
	jrn := ct.jrn
	if jrn != nil {
		lstart := time.Now()
		jrn.mu.Lock()
		defer jrn.mu.Unlock()
		sp.ChildAt("lock.wait", lstart, time.Since(lstart))
		if err := ct.Poisoned(); err != nil {
			return nil, err
		}
	}
	if o.validate != nil {
		if err := o.validate(); err != nil {
			return nil, err
		}
	}
	if jrn != nil {
		jstart := time.Now()
		c, err = jrn.write(o.records)
		sp.ChildAt("journal.commit", jstart, time.Since(jstart))
		if err != nil {
			return nil, err
		}
		jrn.startIfHidden(o.records[0].Op, c)
	}
	astart := time.Now()
	asp := sp.Child("apply")
	if err = o.apply(trace.ContextWithSpan(ctx, asp)); err != nil {
		asp.SetTag("err", err.Error())
	}
	asp.End()
	if jrn != nil {
		jrn.observeApply(o.records[0].Op, time.Since(astart))
		if err == nil && o.track != nil {
			o.track()
		}
	}
	return c, err
}

// opFor rebuilds the operation a journal record describes. The results the
// live verbs hand back to their callers are discarded on replay.
func (ct *Controller) opFor(rec journal.Record) (*op, error) {
	switch rec.Op {
	case journal.OpDeploy:
		return ct.deployOp(rec.Source, new([]DeployReport)), nil
	case journal.OpRevoke:
		return ct.revokeOp(rec.Name, new(RevokeReport)), nil
	case journal.OpAddCases:
		return ct.addCasesOp(rec.Program, rec.BranchDepth, rec.Source, new([]core.AddedCase)), nil
	case journal.OpRemoveCase:
		return ct.removeCaseOp(rec.Program, rec.BranchID), nil
	case journal.OpMemWrite:
		return ct.memWriteOp(rec.Program, rec.Mem, rec.Addr, rec.Value), nil
	case journal.OpMcastSet:
		return ct.mcastSetOp(rec.Group, rec.Ports), nil
	case journal.OpUpgradePrepare:
		return ct.upgradePrepareOp(rec.Name, rec.Source, new(upgrade.Status)), nil
	case journal.OpUpgradeCutover:
		return ct.upgradeCutoverOp(rec.Name, int(rec.Value), new(upgrade.Status)), nil
	case journal.OpUpgradeCommit:
		return ct.upgradeCommitOp(rec.Name, new(upgrade.Status)), nil
	case journal.OpUpgradeAbort:
		return ct.upgradeAbortOp(rec.Name, new(upgrade.Status)), nil
	case journal.OpDeployBatch:
		// Replay re-runs the whole batch deterministically, including an
		// atomic batch's unwind — the journaled record is the batch, not
		// its per-blob effects.
		return ct.deployBatchOp(rec.Sources, rec.Atomic, new([]DeployOutcome)), nil
	case journal.OpMemWriteBatch:
		if len(rec.Addrs) != len(rec.Vals) {
			return nil, fmt.Errorf("controlplane: mem.writebatch record with %d addrs, %d vals", len(rec.Addrs), len(rec.Vals))
		}
		return ct.memWriteBatchOp(rec.Program, rec.Mem, rec.Addrs, rec.Vals, new(int)), nil
	}
	return nil, fmt.Errorf("controlplane: unknown journal op %d", rec.Op)
}
