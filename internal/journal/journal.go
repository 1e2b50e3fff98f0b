// Package journal is the control plane's write-ahead log. Every mutating
// operation (deploy, revoke, case add/remove, memory write, multicast-group
// set) is appended as a CRC32-framed, length-prefixed record *before* it is
// applied, so a crashed controller recovers by replaying the log instead of
// waking up blank — the paper's promise that runtime-linked programs
// survive indefinitely extends across daemon restarts.
//
// On-disk layout (one directory per controller):
//
//	wal-00000001.log   append-only segments of framed records
//	snap-00000001.snap a snapshot superseding segments 1..N (same framing)
//
// Each record is framed as
//
//	[4B little-endian payload length][4B CRC32-Castagnoli of payload][payload]
//
// where the payload is the JSON encoding of Record. Opening the journal
// detects a torn tail — a record cut short or corrupted by a crash mid-
// write — and truncates the active segment at the first bad record; every
// complete record before it replays. A snapshot is written to a temp file,
// fsynced, and atomically renamed, then a fresh segment is started and the
// superseded segments are deleted (compaction); a crash anywhere in that
// sequence leaves either the old segments or the committed snapshot
// authoritative, never neither.
//
// Sync policy trades durability for append latency: SyncAlways fsyncs every
// append (no acknowledged operation is ever lost), SyncInterval fsyncs on a
// timer (a crash loses at most the last interval), SyncNone leaves flushing
// to the OS (an orderly Close still flushes everything).
package journal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"p4runpro/internal/faults"
	"p4runpro/internal/obs"
	"p4runpro/internal/obs/trace"
)

// Op enumerates the journaled control-plane mutations.
type Op uint8

// Journal record kinds, one per mutating controller operation.
const (
	OpDeploy Op = iota + 1
	OpRevoke
	OpAddCases
	OpRemoveCase
	OpMemWrite
	OpMcastSet
	OpUpgradePrepare
	OpUpgradeCutover
	OpUpgradeCommit
	OpUpgradeAbort
	OpDeployBatch
	OpMemWriteBatch
	opMax
)

// String names the op for logs and metrics.
func (o Op) String() string {
	switch o {
	case OpDeploy:
		return "deploy"
	case OpRevoke:
		return "revoke"
	case OpAddCases:
		return "case.add"
	case OpRemoveCase:
		return "case.remove"
	case OpMemWrite:
		return "mem.write"
	case OpMcastSet:
		return "mcast.set"
	case OpUpgradePrepare:
		return "upgrade.prepare"
	case OpUpgradeCutover:
		return "upgrade.cutover"
	case OpUpgradeCommit:
		return "upgrade.commit"
	case OpUpgradeAbort:
		return "upgrade.abort"
	case OpDeployBatch:
		return "deploy.batch"
	case OpMemWriteBatch:
		return "mem.writebatch"
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Record is one journaled mutation. Which fields are meaningful depends on
// Op; the zero values of the rest are omitted from the encoding.
type Record struct {
	Op Op `json:"op"`

	Source      string `json:"source,omitempty"`       // deploy, case.add, upgrade.prepare (v2 source)
	Name        string `json:"name,omitempty"`         // revoke, upgrade.* (program under upgrade)
	Program     string `json:"program,omitempty"`      // case.*, mem.write
	Mem         string `json:"mem,omitempty"`          // mem.write
	Addr        uint32 `json:"addr,omitempty"`         // mem.write
	Value       uint32 `json:"value,omitempty"`        // mem.write, upgrade.cutover (target version)
	BranchDepth int    `json:"branch_depth,omitempty"` // case.add
	BranchID    int    `json:"branch_id,omitempty"`    // case.remove
	Group       int    `json:"group,omitempty"`        // mcast.set
	Ports       []int  `json:"ports,omitempty"`        // mcast.set

	// Batch operations journal as single records so replay re-runs the
	// batch's exact semantics (including an atomic batch's unwind) instead
	// of replaying phantom per-item records for work that never applied.
	Sources []string `json:"sources,omitempty"` // deploy.batch
	Atomic  bool     `json:"atomic,omitempty"`  // deploy.batch
	Addrs   []uint32 `json:"addrs,omitempty"`   // mem.writebatch (parallel with Vals)
	Vals    []uint32 `json:"vals,omitempty"`    // mem.writebatch
}

// Framing limits and layout.
const (
	headerBytes = 8       // 4B length + 4B CRC
	MaxRecord   = 8 << 20 // one record's payload bound (a deploy source blob)
)

// Typed decode errors. A torn record (cut short by a crash) and a corrupt
// record (bad length, CRC, or payload) are both truncation points on the
// active segment; they are distinct errors so tests and callers can tell a
// clean crash artifact from bit rot.
var (
	ErrTorn    = errors.New("journal: torn record")
	ErrCorrupt = errors.New("journal: corrupt record")
	ErrClosed  = errors.New("journal: closed")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Fault-injection points (see internal/faults): armed by chaos tests to
// prove append and sync failures surface cleanly and never corrupt state.
var (
	fpAppend = faults.Register("journal.append")
	fpSync   = faults.Register("journal.sync")
)

// EncodeRecord frames one record: length prefix, CRC32-Castagnoli, JSON
// payload.
func EncodeRecord(rec Record) ([]byte, error) {
	if rec.Op == 0 || rec.Op >= opMax {
		return nil, fmt.Errorf("%w: bad op %d", ErrCorrupt, rec.Op)
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if len(payload) > MaxRecord {
		return nil, fmt.Errorf("journal: record payload %d exceeds %d bytes", len(payload), MaxRecord)
	}
	frame := make([]byte, headerBytes+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	copy(frame[headerBytes:], payload)
	return frame, nil
}

// DecodeFrame decodes one record from the head of b, returning the record
// and the number of bytes consumed. io.EOF reports a clean end (empty
// input); ErrTorn an incomplete record; ErrCorrupt a framed record that
// fails validation.
func DecodeFrame(b []byte) (Record, int, error) {
	if len(b) == 0 {
		return Record{}, 0, io.EOF
	}
	if len(b) < headerBytes {
		return Record{}, 0, ErrTorn
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if n == 0 || n > MaxRecord {
		return Record{}, 0, fmt.Errorf("%w: payload length %d", ErrCorrupt, n)
	}
	if uint32(len(b)-headerBytes) < n {
		return Record{}, 0, ErrTorn
	}
	payload := b[headerBytes : headerBytes+int(n)]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[4:8]) {
		return Record{}, 0, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	var rec Record
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Record{}, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if rec.Op == 0 || rec.Op >= opMax {
		return Record{}, 0, fmt.Errorf("%w: bad op %d", ErrCorrupt, rec.Op)
	}
	return rec, headerBytes + int(n), nil
}

// Policy selects when appended records reach stable storage.
type Policy int

// Sync policies.
const (
	// SyncAlways fsyncs on every append: an acknowledged mutation is
	// durable before the controller applies it.
	SyncAlways Policy = iota
	// SyncInterval fsyncs on a timer (Options.SyncInterval): a crash loses
	// at most the tail written since the last tick; an orderly Close loses
	// nothing.
	SyncInterval
	// SyncNone never fsyncs; the OS page cache decides. Close still
	// flushes buffered writes.
	SyncNone
)

// String names the policy for flags and logs.
func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses a policy name ("always", "interval", "none").
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("journal: unknown sync policy %q (want always, interval, or none)", s)
}

// Options tunes a journal. The zero value is SyncAlways with no observer.
type Options struct {
	Sync         Policy
	SyncInterval time.Duration // SyncInterval policy cadence; default 100ms
	// Obs, when set, receives the journal's metrics (append/sync/replay
	// latency histograms, record counters, segment size gauge).
	Obs *obs.Registry
	// Flight, when set, receives one flight-recorder event per group
	// commit (kind journal.sync), so the flight ring shows the durability
	// cadence interleaved with the operations that forced it.
	Flight *trace.FlightRecorder
}

// metrics holds the journal's observability sinks; nil when unobserved.
type metrics struct {
	hAppend, hSync, hReplay *obs.Histogram
	cAppended, cReplayed    *obs.Counter
	cTruncations            *obs.Counter
	cSnapshots              *obs.Counter
	gSegmentBytes           *obs.Gauge
	cGroups                 *obs.Counter
	hGroupSize              *obs.Histogram
}

func newMetrics(reg *obs.Registry) *metrics {
	if reg == nil {
		return nil
	}
	return &metrics{
		hAppend: reg.Histogram("p4runpro_journal_append_duration_ns",
			"WAL append latency (frame encode through policy-dependent sync) in nanoseconds."),
		hSync: reg.Histogram("p4runpro_journal_sync_duration_ns",
			"WAL fsync latency in nanoseconds."),
		hReplay: reg.Histogram("p4runpro_journal_replay_duration_ns",
			"WAL open-and-replay latency (snapshot load plus segment scan) in nanoseconds."),
		cAppended: reg.Counter("p4runpro_journal_records_total",
			"Journal records by direction.", obs.L("dir", "appended")),
		cReplayed: reg.Counter("p4runpro_journal_records_total",
			"Journal records by direction.", obs.L("dir", "replayed")),
		cTruncations: reg.Counter("p4runpro_journal_torn_truncations_total",
			"Torn or corrupt WAL tails truncated on open."),
		cSnapshots: reg.Counter("p4runpro_journal_snapshots_total",
			"Snapshot + compaction cycles committed."),
		gSegmentBytes: reg.Gauge("p4runpro_journal_segment_bytes",
			"Bytes in the active WAL segment."),
		cGroups: reg.Counter("p4runpro_journal_group_commits_total",
			"Group commits (one fsync covering one or more appends)."),
		hGroupSize: reg.Histogram("p4runpro_journal_group_size",
			"Appends coalesced per group commit."),
	}
}

// Journal is an open write-ahead log rooted at one directory. All methods
// are safe for concurrent use; appends are serialized.
type Journal struct {
	dir string
	opt Options
	met *metrics

	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	seq    uint64 // active segment sequence number
	size   int64  // bytes in the active segment
	closed bool

	tickStop chan struct{}
	tickDone chan struct{}
}

func segName(seq uint64) string  { return fmt.Sprintf("wal-%08d.log", seq) }
func snapName(seq uint64) string { return fmt.Sprintf("snap-%08d.snap", seq) }

// parseSeq extracts the sequence number from a segment or snapshot name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+8+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var seq uint64
	for _, c := range name[len(prefix) : len(prefix)+8] {
		if c < '0' || c > '9' {
			return 0, false
		}
		seq = seq*10 + uint64(c-'0')
	}
	return seq, true
}

// Open opens (creating if needed) the journal in dir and returns it along
// with every record that must be replayed to rebuild state: the newest
// committed snapshot's records followed by the records of each later
// segment in order. A torn or corrupt tail on the active segment is
// truncated in place; the same damage in the middle of the history is an
// error, because silently dropping records there would break the
// replay-prefix guarantee.
func Open(dir string, opt Options) (*Journal, []Record, error) {
	start := time.Now()
	if opt.SyncInterval <= 0 {
		opt.SyncInterval = 100 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var segs []uint64
	var snapSeq uint64 // highest snapshot; 0 = none
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "wal-", ".log"); ok {
			segs = append(segs, seq)
		}
		if seq, ok := parseSeq(e.Name(), "snap-", ".snap"); ok && seq > snapSeq {
			snapSeq = seq
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	j := &Journal{dir: dir, opt: opt, met: newMetrics(opt.Obs)}

	var replay []Record
	if snapSeq > 0 {
		recs, _, err := readSegment(filepath.Join(dir, snapName(snapSeq)), false)
		if err != nil {
			return nil, nil, fmt.Errorf("journal: snapshot %s: %w", snapName(snapSeq), err)
		}
		replay = append(replay, recs...)
	}
	live := segs[:0]
	for _, s := range segs {
		if s > snapSeq {
			live = append(live, s)
		}
	}
	for i, s := range live {
		last := i == len(live)-1
		recs, truncated, err := readSegment(filepath.Join(dir, segName(s)), last)
		if err != nil {
			return nil, nil, fmt.Errorf("journal: segment %s: %w", segName(s), err)
		}
		if truncated && j.met != nil {
			j.met.cTruncations.Inc()
		}
		replay = append(replay, recs...)
	}

	// Position the active segment: the highest live segment, or a fresh one
	// after the snapshot when compaction deleted everything.
	j.seq = snapSeq + 1
	if n := len(live); n > 0 {
		j.seq = live[n-1]
	}
	path := filepath.Join(dir, segName(j.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	j.f = f
	j.w = bufio.NewWriterSize(f, 64<<10)
	j.size = st.Size()
	if j.met != nil {
		j.met.gSegmentBytes.Set(float64(j.size))
		j.met.cReplayed.Add(uint64(len(replay)))
		j.met.hReplay.ObserveDuration(time.Since(start))
	}
	if opt.Sync == SyncInterval {
		j.tickStop = make(chan struct{})
		j.tickDone = make(chan struct{})
		go j.syncLoop()
	}
	return j, replay, nil
}

// readSegment scans one segment file. When truncateTail is set (the active
// segment), a torn or corrupt record truncates the file at the last good
// offset and scanning stops cleanly; otherwise the damage is returned as an
// error.
func readSegment(path string, truncateTail bool) (recs []Record, truncated bool, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false, err
	}
	off := 0
	for {
		rec, n, err := DecodeFrame(b[off:])
		if err == io.EOF {
			return recs, false, nil
		}
		if err != nil {
			if !truncateTail {
				return nil, false, err
			}
			if terr := os.Truncate(path, int64(off)); terr != nil {
				return nil, false, fmt.Errorf("truncate torn tail: %w", terr)
			}
			return recs, true, nil
		}
		recs = append(recs, rec)
		off += n
	}
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// Append frames rec and writes it to the active segment, syncing according
// to policy. The record is durable (per policy) when Append returns — the
// caller applies the mutation only afterwards (write-ahead discipline).
// Under SyncAlways each Append pays one fsync; AppendBatch shares one
// across its records (see commitLocked).
func (j *Journal) Append(rec Record) error {
	frame, err := EncodeRecord(rec)
	if err != nil {
		return err
	}
	return j.appendFrames(frame, 1)
}

// AppendBatch frames recs and writes them as one group: every frame is
// buffered under a single lock hold and made durable by a single
// policy-dependent sync, so an N-record batch pays one fsync instead of N.
// Encoding errors surface before any record is written; a write or sync
// failure leaves the journal in the same unknown-tail state a failed
// Append does.
func (j *Journal) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	var buf []byte
	for _, rec := range recs {
		frame, err := EncodeRecord(rec)
		if err != nil {
			return err
		}
		buf = append(buf, frame...)
	}
	return j.appendFrames(buf, len(recs))
}

// appendFrames writes pre-encoded frames and commits them per policy.
func (j *Journal) appendFrames(buf []byte, n int) error {
	start := time.Now()
	if err := fpAppend.Check(); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return ErrClosed
	}
	if _, err := j.w.Write(buf); err != nil {
		j.mu.Unlock()
		return fmt.Errorf("journal: append: %w", err)
	}
	j.size += int64(len(buf))
	var err error
	switch j.opt.Sync {
	case SyncAlways:
		err = j.commitLocked(n)
	case SyncNone:
		if ferr := j.w.Flush(); ferr != nil {
			err = fmt.Errorf("journal: flush: %w", ferr)
		}
	case SyncInterval:
		// Buffered; the sync loop flushes on its next tick.
	}
	if err == nil && j.met != nil {
		j.met.cAppended.Add(uint64(n))
		j.met.gSegmentBytes.Set(float64(j.size))
		j.met.hAppend.ObserveDuration(time.Since(start))
	}
	j.mu.Unlock()
	return err
}

// commitLocked makes the n appends buffered under the caller's hold of mu
// durable as one group commit: one flush+fsync covers them all. Caller must
// hold j.mu.
func (j *Journal) commitLocked(n int) error {
	start := time.Now()
	err := j.syncLocked()
	if err == nil && j.met != nil {
		j.met.cGroups.Inc()
		j.met.hGroupSize.Observe(uint64(n))
	}
	if fr := j.opt.Flight; fr != nil {
		ev := trace.Event{Kind: trace.EvJournalSync, Name: "group-commit",
			Detail: strconv.Itoa(n) + " append(s)", Dur: time.Since(start)}
		if err != nil {
			ev.Err = err.Error()
		}
		fr.Record(ev)
	}
	return err
}

// Sync flushes buffered appends and fsyncs the active segment.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	start := time.Now()
	if err := fpSync.Check(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	if j.met != nil {
		j.met.hSync.ObserveDuration(time.Since(start))
	}
	return nil
}

// syncLoop is the SyncInterval policy's background flusher.
func (j *Journal) syncLoop() {
	defer close(j.tickDone)
	t := time.NewTicker(j.opt.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-j.tickStop:
			return
		case <-t.C:
			j.mu.Lock()
			if !j.closed {
				_ = j.syncLocked() // next tick retries; Close surfaces errors
			}
			j.mu.Unlock()
		}
	}
}

// Compact commits a snapshot — records sufficient to rebuild the current
// state, supplied by the controller — and deletes the segments it
// supersedes. The snapshot is written to a temp file, fsynced, and
// atomically renamed before anything is deleted, so a crash at any point
// leaves a recoverable directory. The caller must guarantee no concurrent
// mutations (the controller holds its mutation lock across state capture
// and Compact).
func (j *Journal) Compact(snapshot []Record) (err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	// The snapshot supersedes everything up to and including the active
	// segment; make the active segment durable first so a failed compaction
	// loses nothing.
	if err := j.syncLocked(); err != nil {
		return err
	}
	coverSeq := j.seq

	tmp := filepath.Join(j.dir, snapName(coverSeq)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	w := bufio.NewWriterSize(f, 256<<10)
	for _, rec := range snapshot {
		frame, err := EncodeRecord(rec)
		if err != nil {
			return err
		}
		if _, err := w.Write(frame); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(j.dir, snapName(coverSeq))); err != nil {
		return err
	}
	syncDir(j.dir) // make the rename durable (best effort)

	// The snapshot is committed; roll to a fresh segment and delete the
	// superseded files. Failures past this point leave extra files that the
	// next Open simply ignores (their seq <= the snapshot's).
	nf, err := os.OpenFile(filepath.Join(j.dir, segName(coverSeq+1)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	j.f.Close()
	j.f = nf
	j.w = bufio.NewWriterSize(nf, 64<<10)
	j.seq = coverSeq + 1
	j.size = 0
	for seq := coverSeq; seq >= 1; seq-- {
		p := filepath.Join(j.dir, segName(seq))
		if _, serr := os.Stat(p); serr != nil {
			break // older segments were already compacted away
		}
		os.Remove(p)
	}
	// Drop superseded snapshots too.
	entries, _ := os.ReadDir(j.dir)
	for _, e := range entries {
		if seq, ok := parseSeq(e.Name(), "snap-", ".snap"); ok && seq < coverSeq {
			os.Remove(filepath.Join(j.dir, e.Name()))
		}
	}
	if j.met != nil {
		j.met.cSnapshots.Inc()
		j.met.gSegmentBytes.Set(0)
	}
	return nil
}

// SegmentBytes reports the active segment's size (tests, status lines).
func (j *Journal) SegmentBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Close flushes and fsyncs outstanding appends and closes the journal. An
// orderly shutdown therefore never loses the sync-interval tail. Close is
// idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	tickStop, tickDone := j.tickStop, j.tickDone
	j.mu.Unlock()
	if tickStop != nil {
		close(tickStop)
		<-tickDone
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var err error
	if ferr := j.w.Flush(); ferr != nil {
		err = ferr
	}
	if serr := j.f.Sync(); serr != nil && err == nil {
		err = serr
	}
	if cerr := j.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so renames and creates inside it are durable.
// Best effort: not all platforms support it.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}
