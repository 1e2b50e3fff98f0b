// Batch entry-points: the controller-side half of the bulk control-plane
// fast path. DeployAll links N source blobs and WriteMemoryBatch writes N
// memory buckets under ONE lock acquisition and ONE journal group, so a
// mass operation pays one fsync instead of N. Batches journal as single
// records (journal.OpDeployBatch / OpMemWriteBatch) so crash replay
// re-runs the batch's exact semantics — including an atomic deploy's
// unwind — rather than replaying per-item records for work that may never
// have applied.
package controlplane

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"p4runpro/internal/journal"
	"p4runpro/internal/obs/trace"
)

// DeployOutcome is one source blob's result in a DeployAll: either the
// per-program reports of a linked blob or the error that rejected it.
type DeployOutcome struct {
	Reports []DeployReport
	Err     error
}

// MemWriteBatchChunk bounds one OpMemWriteBatch record's entry count so
// the JSON payload stays far under journal.MaxRecord; larger batches
// journal as several chunk records committed in one group. Exported so
// crash tests can reason about record boundaries within a group.
const MemWriteBatchChunk = 1 << 16

// DeployAll links every source blob in sources under a single journal
// append and a single mutation-lock acquisition, returning one outcome
// per blob in order. Each blob is individually atomic exactly as in
// Deploy. With atomic set, the whole batch is: the first blob that fails
// unwinds every blob this call already linked and DeployAll returns the
// failure with no outcomes. Without it, every blob is attempted and
// failures are reported per-blob.
func (ct *Controller) DeployAll(sources []string, atomic bool) ([]DeployOutcome, error) {
	return ct.DeployAllCtx(context.Background(), sources, atomic)
}

// DeployAllCtx is DeployAll under the trace carried by ctx: one commit
// child covers the batch's single group append, and one apply child holds
// every blob's link spans.
func (ct *Controller) DeployAllCtx(ctx context.Context, sources []string, atomic bool) (outcomes []DeployOutcome, err error) {
	if len(sources) == 0 {
		return nil, nil
	}
	err = ct.do(ctx, ct.deployBatchOp(sources, atomic, &outcomes))
	return outcomes, err
}

func (ct *Controller) deployBatchOp(sources []string, atomic bool, out *[]DeployOutcome) *op {
	return &op{kind: trace.EvDeploy, subject: "batch", detail: strconv.Itoa(len(sources)) + " sources",
		records: []journal.Record{{Op: journal.OpDeployBatch, Sources: sources, Atomic: atomic}},
		apply:   func(ctx context.Context) (err error) { *out, err = ct.linkBlobs(ctx, sources, atomic); return err },
		track: func() {
			for i, oc := range *out {
				if oc.Err == nil {
					ct.jrn.trackDeploy(sources[i], oc.Reports)
				}
			}
		}}
}

// linkBlobs links the batch's blobs in order; an atomic batch stops at the
// first failure and unwinds what it linked.
func (ct *Controller) linkBlobs(ctx context.Context, sources []string, atomic bool) ([]DeployOutcome, error) {
	outcomes := make([]DeployOutcome, 0, len(sources))
	for i, src := range sources {
		reports, err := ct.linkBlob(ctx, src)
		if err != nil && atomic {
			// Unwind the blobs this batch already linked, newest first, so
			// the batch is all-or-nothing like a single blob's programs.
			err = fmt.Errorf("deploy.batch: source %d: %w", i, err)
			for k := len(outcomes) - 1; k >= 0; k-- {
				rs := outcomes[k].Reports
				for p := len(rs) - 1; p >= 0; p-- {
					if _, rerr := ct.unlink(rs[p].Program); rerr != nil {
						err = errors.Join(err, fmt.Errorf("unwinding %s: %w", rs[p].Program, rerr))
					}
				}
			}
			return nil, err
		}
		outcomes = append(outcomes, DeployOutcome{Reports: reports, Err: err})
	}
	return outcomes, nil
}

// MemWrite is one (virtual address, value) bucket write of a batch.
type MemWrite struct {
	Addr  uint32
	Value uint32
}

// pokeTarget is one validated write, resolved to its physical array.
type pokeTarget struct {
	arr   memArray
	paddr uint32
	value uint32
}

// memArray is the Poke surface of a physical register array; declared
// locally so validation can hold resolved arrays without re-asserting.
type memArray interface {
	Poke(addr, value uint32) error
}

// WriteMemoryBatch writes every (addr, value) bucket of one program
// memory block under a single lock acquisition and a single journal
// group. It is validate-then-apply: every address is translated first,
// so a batch with any bad address fails whole before the journal or the
// data plane sees it; afterwards the writes are journaled (chunked into
// OpMemWriteBatch records committed as one group) and applied. Returns
// the number of buckets written.
func (ct *Controller) WriteMemoryBatch(program, mem string, writes []MemWrite) (int, error) {
	return ct.WriteMemoryBatchCtx(context.Background(), program, mem, writes)
}

// WriteMemoryBatchCtx is WriteMemoryBatch under the trace carried by ctx.
func (ct *Controller) WriteMemoryBatchCtx(ctx context.Context, program, mem string, writes []MemWrite) (n int, err error) {
	if len(writes) == 0 {
		return 0, nil
	}
	addrs, vals := make([]uint32, len(writes)), make([]uint32, len(writes))
	for i, w := range writes {
		addrs[i], vals[i] = w.Addr, w.Value
	}
	err = ct.do(ctx, ct.memWriteBatchOp(program, mem, addrs, vals, &n))
	return n, err
}

// memWriteBatchOp takes the batch as the parallel address/value vectors a
// journal record holds, so the live path's chunk records are sub-slices of
// them and replay passes a record's vectors straight through.
func (ct *Controller) memWriteBatchOp(program, mem string, addrs, vals []uint32, out *int) *op {
	start := time.Now()
	var targets []pokeTarget
	o := &op{kind: trace.EvMemWrite, subject: program,
		detail: mem + ": " + strconv.Itoa(len(addrs)) + " writes"}
	// At least one record even for an empty batch (only a hand-made
	// journal can hold one): do names the operation by its first record.
	for off := 0; ; off += MemWriteBatchChunk {
		end := off + MemWriteBatchChunk
		if end > len(addrs) {
			end = len(addrs)
		}
		o.records = append(o.records, journal.Record{Op: journal.OpMemWriteBatch, Program: program, Mem: mem,
			Addrs: addrs[off:end], Vals: vals[off:end]})
		if end == len(addrs) {
			break
		}
	}
	// Translations are resolved under the mutation lock so a concurrent
	// revoke cannot invalidate them between validation and apply. The
	// batch counts as one memory operation whichever step ends it.
	o.validate = func() (err error) {
		if targets, err = ct.resolveWrites(program, mem, addrs, vals); err != nil {
			observeOp(ct.mMemOpNs, ct.cMemOpOK, ct.cMemOpErr, start, err)
		}
		return err
	}
	o.apply = func(context.Context) (err error) {
		*out, err = applyWrites(targets)
		observeOp(ct.mMemOpNs, ct.cMemOpOK, ct.cMemOpErr, start, err)
		return err
	}
	return o
}

// resolveWrites translates every virtual address and resolves its
// physical array, failing on the first bad write.
func (ct *Controller) resolveWrites(program, mem string, addrs, vals []uint32) ([]pokeTarget, error) {
	targets := make([]pokeTarget, 0, len(addrs))
	for i, addr := range addrs {
		rpb, paddr, err := ct.Compiler.Mgr.Translate(program, mem, addr)
		if err != nil {
			return nil, fmt.Errorf("mem.writebatch: write %d (addr %d): %w", i, addr, err)
		}
		arr, err := ct.Plane.Array(rpb)
		if err != nil {
			return nil, fmt.Errorf("mem.writebatch: write %d (addr %d): %w", i, addr, err)
		}
		targets = append(targets, pokeTarget{arr: arr, paddr: paddr, value: vals[i]})
	}
	return targets, nil
}

// applyWrites pokes every validated target.
func applyWrites(targets []pokeTarget) (int, error) {
	for i, t := range targets {
		if err := t.arr.Poke(t.paddr, t.value); err != nil {
			return i, fmt.Errorf("mem.writebatch: write %d: %w", i, err)
		}
	}
	return len(targets), nil
}
