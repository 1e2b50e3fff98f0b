// Write-ahead journaling for the controller. With a journal attached every
// mutating operation is written to the log *before* it is applied
// (write-ahead discipline) and acknowledged only once the log is durable
// (op.go releases the lock before that wait), and Recover rebuilds an
// equivalent controller from the newest snapshot plus segment replay.
// Because every apply path is deterministic given the operation order —
// PID assignment, branch-ID assignment, and memory placement all depend
// only on prior state — the recovered controller's programs, entries, and
// memory match the journaled history exactly; operations whose original
// apply failed fail identically on replay and leave no state behind.
package controlplane

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"p4runpro/internal/core"
	"p4runpro/internal/journal"
	"p4runpro/internal/obs"
	"p4runpro/internal/obs/trace"
	"p4runpro/internal/rmt"
	"p4runpro/internal/upgrade"
)

// ErrNoJournal reports a journal-only operation on a controller without one.
var ErrNoJournal = errors.New("controlplane: no journal attached")

// ErrPoisoned reports that a journal sync failed after its operation was
// applied. The controller then refuses every mutation; restarting it
// through Recover rebuilds the state the journal holds.
var ErrPoisoned = errors.New("controlplane: journal sync failed after apply; restart to recover")

// blobState tracks one deployed source blob — the multi-program unit Deploy
// links atomically — for snapshot composition.
type blobState struct {
	source   string
	programs []string        // program names, declaration order
	live     map[string]bool // false once revoked
}

func (b *blobState) anyLive() bool {
	for _, p := range b.programs {
		if b.live[p] {
			return true
		}
	}
	return false
}

// jstate is the controller's journaling side-state: the journal itself plus
// the bookkeeping needed to compose snapshots (which source blobs are live,
// the per-program case-update history, the multicast groups). It exists
// only when a journal is attached, so an unjournaled controller pays
// nothing for it.
type jstate struct {
	j *journal.Journal

	// mu serializes all mutating operations while journaling is enabled, so
	// the journal's record order is the apply order and Snapshot sees a
	// quiescent controller. It is released before the wait for durability.
	mu        sync.Mutex
	replaying bool
	poisoned  atomic.Pointer[error] // set once a sync fails after apply (ErrPoisoned)
	// applyEst is a moving average of apply time per operation kind, which
	// decides whether an operation's fsync starts before its apply.
	applyEst map[journal.Op]time.Duration

	blobs   []*blobState
	blobOf  map[string]*blobState
	caseOps map[string][]journal.Record // per-program incremental-update history
	mcast   map[int][]int

	upgrades map[string]string   // program -> in-flight v2 source
	upgraded map[string][]string // program -> committed v2 sources, oldest first

	cReplayErr *obs.Counter
}

func newJState(j *journal.Journal, reg *obs.Registry) *jstate {
	return &jstate{
		j:        j,
		blobOf:   make(map[string]*blobState),
		caseOps:  make(map[string][]journal.Record),
		mcast:    make(map[int][]int),
		upgrades: make(map[string]string),
		upgraded: make(map[string][]string),
		applyEst: make(map[journal.Op]time.Duration),
		cReplayErr: reg.Counter("p4runpro_journal_replay_op_failures_total",
			"Replayed operations whose apply failed (deterministic refailures of originally failed ops)."),
	}
}

// write journals an operation's records without waiting for them to be
// durable, unless the controller is replaying (replayed records already
// are). Caller holds mu.
func (s *jstate) write(recs []journal.Record) (*journal.Commit, error) {
	if s.replaying {
		return nil, nil
	}
	return s.j.Write(recs)
}

// startIfHidden starts c's fsync now when operations of this kind have
// lately applied for longer than the journal's fsyncs take: the fsync then
// hides behind the apply, which repays the syncer's wake-ups. A shorter
// apply hides only its own length, too little for the microsecond verbs
// and one-primitive deploys to repay them, so it syncs at its Wait.
// Caller holds mu.
func (s *jstate) startIfHidden(kind journal.Op, c *journal.Commit) {
	if est := s.j.SyncEstimate(); est > 0 && s.applyEst[kind] > est {
		c.Start()
	}
}

// observeApply folds one apply's duration into its kind's moving average.
// Caller holds mu.
func (s *jstate) observeApply(kind journal.Op, d time.Duration) {
	s.applyEst[kind] += (d - s.applyEst[kind]) / 8
}

// await waits, with mu released, until an operation's records are durable
// (a "journal.durable" span when it waits for an fsync). A failed sync
// leaves the controller's state ahead of its journal, so it poisons the
// controller: every later mutation fails with the same error until a
// restart recovers from the journal. s may be nil when c is.
func (s *jstate) await(sp *trace.Span, c *journal.Commit) error {
	if !c.WaitsForSync() {
		return nil
	}
	wstart := time.Now()
	err := c.Wait()
	sp.ChildAt("journal.durable", wstart, time.Since(wstart))
	if err == nil {
		return nil
	}
	err = fmt.Errorf("%w: %w", ErrPoisoned, err)
	s.poisoned.CompareAndSwap(nil, &err)
	return err
}

// Poisoned returns the error that poisoned the controller, or nil while no
// journal sync has failed after its apply. It takes no lock, so the status
// and utilization verbs, which a health check calls, can answer with it.
func (ct *Controller) Poisoned() error {
	if ct.jrn == nil {
		return nil
	}
	if err := ct.jrn.poisoned.Load(); err != nil {
		return *err
	}
	return nil
}

func (s *jstate) trackDeploy(src string, reports []DeployReport) {
	b := &blobState{source: src, live: make(map[string]bool, len(reports))}
	for _, r := range reports {
		b.programs = append(b.programs, r.Program)
		b.live[r.Program] = true
		s.blobOf[r.Program] = b
	}
	s.blobs = append(s.blobs, b)
}

func (s *jstate) trackRevoke(name string) {
	b := s.blobOf[name]
	if b == nil {
		return
	}
	b.live[name] = false
	delete(s.blobOf, name)
	delete(s.caseOps, name)
	delete(s.upgrades, name)
	delete(s.upgraded, name)
	if !b.anyLive() {
		for i, bb := range s.blobs {
			if bb == b {
				s.blobs = append(s.blobs[:i], s.blobs[i+1:]...)
				break
			}
		}
	}
}

func (s *jstate) trackCaseOp(program string, rec journal.Record) {
	s.caseOps[program] = append(s.caseOps[program], rec)
}

func (s *jstate) trackMcast(group int, ports []int) {
	s.mcast[group] = append([]int(nil), ports...)
}

func (s *jstate) trackUpgradePrepare(program, v2src string) {
	s.upgrades[program] = v2src
}

// trackUpgradeCommit promotes the in-flight v2 source into the committed
// chain and drops the program's case-op history: case updates recorded
// against v1 must not replay onto v2's freshly-linked tables.
func (s *jstate) trackUpgradeCommit(program string) {
	if src, ok := s.upgrades[program]; ok {
		s.upgraded[program] = append(s.upgraded[program], src)
		delete(s.upgrades, program)
	}
	delete(s.caseOps, program)
}

func (s *jstate) trackUpgradeAbort(program string) {
	delete(s.upgrades, program)
}

// Journal returns the attached write-ahead journal, or nil.
func (ct *Controller) Journal() *journal.Journal {
	if ct.jrn == nil {
		return nil
	}
	return ct.jrn.j
}

// Recover opens (creating if needed) the write-ahead journal in dir,
// rebuilds the controller's state by applying the journal's snapshot and
// segment records in order, and returns the controller with the journal
// attached — every subsequent mutation is journaled before it is applied.
// A fresh directory recovers to an empty controller, so Recover is also how
// journaling is enabled in the first place.
//
// Replayed operations that fail (because their original apply failed too)
// are counted and skipped; they left no state behind either time.
func Recover(dir string, cfg rmt.Config, copt core.Options, jopt journal.Options) (*Controller, error) {
	ct, _, err := recoverJournal(dir, cfg, copt, jopt)
	return ct, err
}

// RecoverWithTracing is Recover with a tracer and flight recorder attached
// once replay completes — attaching them afterwards keeps a long replay
// from flooding the flight recorder with re-applied history. The boot
// itself lands as one "boot" event carrying the replay size and duration.
func RecoverWithTracing(dir string, cfg rmt.Config, copt core.Options, jopt journal.Options, tr *trace.Tracer, fr *trace.FlightRecorder) (*Controller, error) {
	start := time.Now()
	ct, n, err := recoverJournal(dir, cfg, copt, jopt)
	if err != nil {
		return nil, err
	}
	ct.SetTracing(tr, fr)
	fr.Record(trace.Event{
		Kind: trace.EvBoot, Name: "recover",
		Detail: strconv.Itoa(n) + " records replayed",
		Dur:    time.Since(start),
	})
	return ct, nil
}

func recoverJournal(dir string, cfg rmt.Config, copt core.Options, jopt journal.Options) (*Controller, int, error) {
	ct, err := New(cfg, copt)
	if err != nil {
		return nil, 0, err
	}
	if jopt.Obs == nil {
		jopt.Obs = ct.Obs
	}
	j, replay, err := journal.Open(dir, jopt)
	if err != nil {
		return nil, 0, err
	}
	js := newJState(j, ct.Obs)
	js.replaying = true
	ct.jrn = js
	for _, rec := range replay {
		if err := ct.applyRecord(rec); err != nil {
			js.cReplayErr.Inc()
		}
	}
	js.replaying = false
	return ct, len(replay), nil
}

// applyRecord runs one journaled mutation through the same operation path
// the live verbs use (which tracks journaling state but skips the append
// while replaying).
func (ct *Controller) applyRecord(rec journal.Record) error {
	o, err := ct.opFor(rec)
	if err != nil {
		return err
	}
	return ct.do(context.Background(), o)
}

// Snapshot composes records sufficient to rebuild the controller's current
// state — live source blobs, revocations of their dead members, the
// incremental case-update history, every non-zero memory word, and the
// multicast groups — and commits them as a journal snapshot, deleting the
// superseded segments (compaction).
func (ct *Controller) Snapshot() error {
	if ct.jrn == nil {
		return ErrNoJournal
	}
	ct.jrn.mu.Lock()
	defer ct.jrn.mu.Unlock()
	if err := ct.Poisoned(); err != nil {
		return err
	}
	recs, err := ct.snapshotRecords()
	if err != nil {
		return err
	}
	return ct.jrn.j.Compact(recs)
}

// snapshotRecords captures the controller's state as a replayable record
// sequence. Caller holds jrn.mu.
func (ct *Controller) snapshotRecords() ([]journal.Record, error) {
	var recs []journal.Record
	// Phase 1: live blobs in deploy order, then revocations of their dead
	// members, so each blob replays to exactly its surviving programs.
	for _, b := range ct.jrn.blobs {
		if !b.anyLive() {
			continue
		}
		recs = append(recs, journal.Record{Op: journal.OpDeploy, Source: b.source})
		for _, p := range b.programs {
			if !b.live[p] {
				recs = append(recs, journal.Record{Op: journal.OpRevoke, Name: p})
			}
		}
	}
	// Phase 1.5: upgrade history per live program. Committed upgrades replay
	// as full prepare/cutover/commit chains (in order, so repeated upgrades
	// land on the final source); an in-flight session replays its prepare —
	// plus the cutover if v2 currently carries the traffic — leaving the
	// recovered controller mid-upgrade exactly as it was.
	for _, b := range ct.jrn.blobs {
		for _, p := range b.programs {
			if !b.live[p] {
				continue
			}
			for _, src := range ct.jrn.upgraded[p] {
				recs = append(recs,
					journal.Record{Op: journal.OpUpgradePrepare, Name: p, Source: src},
					journal.Record{Op: journal.OpUpgradeCutover, Name: p, Value: 2},
					journal.Record{Op: journal.OpUpgradeCommit, Name: p})
			}
			if src, ok := ct.jrn.upgrades[p]; ok {
				recs = append(recs, journal.Record{Op: journal.OpUpgradePrepare, Name: p, Source: src})
				if st, err := ct.UpgradeStatus(p); err == nil && st.ActiveVersion == 2 {
					recs = append(recs, journal.Record{Op: journal.OpUpgradeCutover, Name: p, Value: 2})
				}
			}
		}
	}
	// Phase 2: the full case-update history per program, preserving the
	// add/remove order so replay reassigns the same branch IDs.
	for _, b := range ct.jrn.blobs {
		for _, p := range b.programs {
			recs = append(recs, ct.jrn.caseOps[p]...)
		}
	}
	// Phase 3: non-zero memory words, read back through the same virtual
	// address translation writes use. In-flight upgrades also carry the v2
	// side's memory so the prepared-but-uncommitted version recovers with
	// its migrated (and since-mutated) sketch state.
	for _, b := range ct.jrn.blobs {
		for _, p := range b.programs {
			if !b.live[p] {
				continue
			}
			if err := ct.appendMemRecords(&recs, p); err != nil {
				return nil, err
			}
			if _, ok := ct.jrn.upgrades[p]; ok {
				if err := ct.appendMemRecords(&recs, p+upgrade.VersionSuffix); err != nil {
					return nil, err
				}
			}
		}
	}
	// Phase 4: multicast groups (unchanged by upgrades).
	groups := make([]int, 0, len(ct.jrn.mcast))
	for g := range ct.jrn.mcast {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	for _, g := range groups {
		recs = append(recs, journal.Record{Op: journal.OpMcastSet, Group: g, Ports: ct.jrn.mcast[g]})
	}
	return recs, nil
}

// appendMemRecords emits one OpMemWrite per non-zero memory word of the
// named linked program (which may be an in-flight upgrade's v2 side).
func (ct *Controller) appendMemRecords(recs *[]journal.Record, p string) error {
	lp, ok := ct.Compiler.Linked(p)
	if !ok {
		return nil
	}
	blocks := lp.Blocks()
	names := make([]string, 0, len(blocks))
	for name := range blocks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		vals, err := ct.ReadMemoryRange(p, name, 0, blocks[name].Size)
		if err != nil {
			return fmt.Errorf("snapshot %s/%s: %w", p, name, err)
		}
		for addr, v := range vals {
			if v != 0 {
				*recs = append(*recs, journal.Record{
					Op: journal.OpMemWrite, Program: p, Mem: name,
					Addr: uint32(addr), Value: v,
				})
			}
		}
	}
	return nil
}
