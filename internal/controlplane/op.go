// The one operation path. Every mutating verb — deploy, revoke, the case
// updates, multicast, memory writes, the batch verbs and the four upgrade
// phases — is described by an op value and run by Controller.do, which
// alone owns the trace span, the journal lock, the write-ahead append, the
// apply and the flight-recorder event. Crash replay builds the same op
// from a journal record (opFor), so replay and live execution cannot
// drift apart.
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

// do runs one operation: lock wait, validation, the journal commit and the
// apply become attributed child spans (the compiler's link phases nest
// under apply), and the outcome lands in the flight recorder. Without a
// journal no lock is taken and nothing is appended — the mutation paths
// are as cheap as before the journal existed.
func (ct *Controller) do(ctx context.Context, o *op) (err error) {
	ctx, sp, owned := ct.opSpan(ctx, o.records[0].Op.String())
	start := time.Now()
	defer func() {
		ct.flightOp(o, start, err, sp)
		if owned {
			sp.End()
		}
	}()
	jrn := ct.jrn
	if jrn != nil {
		lstart := time.Now()
		jrn.mu.Lock()
		defer jrn.mu.Unlock()
		sp.ChildAt("lock.wait", lstart, time.Since(lstart))
	}
	if o.validate != nil {
		if err := o.validate(); err != nil {
			return err
		}
	}
	if jrn != nil {
		jstart := time.Now()
		if len(o.records) == 1 {
			err = jrn.append(o.records[0])
		} else {
			err = jrn.appendBatch(o.records)
		}
		sp.ChildAt("journal.commit", jstart, time.Since(jstart))
		if err != nil {
			return err
		}
	}
	asp := sp.Child("apply")
	if err = o.apply(trace.ContextWithSpan(ctx, asp)); err != nil {
		asp.SetTag("err", err.Error())
	}
	asp.End()
	if err == nil && jrn != nil && o.track != nil {
		o.track()
	}
	return err
}

// opSpan resolves the span an operation's children attach to: the
// context's current span when the caller is traced (the wire server's
// srv.<verb> span, or a fleet fan-out span), else a fresh "ct.<verb>"
// root from the controller's own tracer, else the nop span. owned reports
// whether this call opened the span and must End it.
func (ct *Controller) opSpan(ctx context.Context, verb string) (_ context.Context, sp *trace.Span, owned bool) {
	if sp := trace.SpanFromContext(ctx); sp.Enabled() {
		return ctx, sp, false
	}
	if ct.tracer.Enabled() {
		ctx, sp := ct.tracer.Start(ctx, "ct."+verb)
		return ctx, sp, true
	}
	return ctx, trace.Nop(), false
}

// flightOp records one completed operation in the flight recorder. Strings
// are passed through as-is so recording allocates nothing beyond what the
// op already holds.
func (ct *Controller) flightOp(o *op, start time.Time, err error, sp *trace.Span) {
	if ct.flight == nil {
		return
	}
	ev := trace.Event{Kind: o.kind, Name: o.subject, Detail: o.detail, Dur: time.Since(start), Trace: sp.TraceID()}
	if err != nil {
		ev.Err = err.Error()
	}
	ct.flight.Record(ev)
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
