// Package journal is the control plane's write-ahead log. Every mutating
// operation (deploy, revoke, case add/remove, memory write, multicast-group
// set) is appended as a CRC32-framed, length-prefixed record *before* it is
// applied, so a crashed controller recovers by replaying the log instead of
// waking up blank — the paper's promise that runtime-linked programs
// survive indefinitely extends across daemon restarts.
//
// On-disk layout (one directory per controller):
//
//	wal-00000001.log   segments of framed records, written in order
//	snap-00000001.snap a snapshot superseding segments 1..N (same framing)
//
// Each record is framed as
//
//	[4B little-endian payload length][4B CRC32-Castagnoli of payload][payload]
//
// where the payload is the JSON encoding of Record. The active segment is
// preallocated ahead of its last record in 4 MiB steps (on linux, with
// fallocate), so an append neither allocates nor grows the file and a sync
// round needs only fdatasync; an all-zero record header, the unwritten
// rest of that space, ends the log. Opening the journal detects a torn tail
// — a record cut short or corrupted by a crash mid-write — and cuts the
// active segment at the first bad record or zero header, then preallocates
// it again; every complete record before it replays, and nothing a crash
// left beyond it ever does. Close cuts the segment to its records, so an
// orderly shutdown leaves no preallocated zeros. A snapshot is written to a temp file,
// fsynced, and atomically renamed, then a fresh segment is started and the
// superseded segments are deleted (compaction); a crash anywhere in that
// sequence leaves either the old segments or the committed snapshot
// authoritative, never neither.
//
// Sync policy trades durability for append latency: SyncAlways makes every
// append durable before its Wait returns (no acknowledged operation is ever
// lost), SyncInterval fsyncs on a timer (a crash loses at most the last
// interval), SyncNone leaves flushing to the OS (an orderly Close still
// flushes everything).
//
// Appending is split in two so a caller can release its own locks before
// it waits: Write buffers the frames under the journal lock and returns a
// Commit, and Commit.Wait blocks until they are durable. Under SyncAlways a
// sync round takes everything written so far as one group, flushes it
// under the lock and fsyncs it with the lock released, so later writers
// keep filling the next group behind the fsync and the first of their
// Waits syncs it for all of them (group commit). A Wait whose records no
// finished round covered runs the round itself; Commit.Start instead hands
// the round to the journal's background syncer at once, so the fsync
// overlaps the caller's work up to its Wait.
//
// A failed sync is final. After an fsync error the kernel may have dropped
// the dirty pages and still report the next fsync a success, so every later
// Write, round and Compact fails with the first error; reopening the
// journal rereads what actually reached the disk.
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
	"sync/atomic"
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

	// preallocStep is how far at a time the active segment's
	// preallocation grows ahead of its write position.
	preallocStep = 4 << 20
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
	// SyncAlways makes every append durable before its Wait returns: one
	// fsync covers each group of writes, so an acknowledged mutation is
	// never lost.
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

	// syncMu serializes sync rounds with each other and with the segment
	// swaps of Compact and Close, so no round fsyncs a file they closed.
	// Taken before mu.
	syncMu sync.Mutex

	mu     sync.Mutex
	f      *os.File
	w      *bufio.Writer
	seq    uint64 // active segment sequence number
	size   int64  // bytes of records in the active segment
	alloc  int64  // bytes preallocated in the active segment
	closed bool
	open   *group // SyncAlways writes not yet taken by a sync; nil if none
	failed error  // the first failed sync; every later write and sync fails with it

	syncEst atomic.Int64 // moving average of fsync latency, in nanoseconds

	kick chan struct{} // wakes the syncer; capacity 1
	stop chan struct{}
	done chan struct{}
}

// group is one group commit: the writes one fsync makes durable.
type group struct {
	n    int           // appends in the group
	done chan struct{} // closed once the sync finished
	err  error         // the sync's outcome, set before done closes
	at   time.Time     // when the sync finished
}

// Commit is a handle on the records of one Write. The zero of the pointer
// (a Write of no records) is already durable.
type Commit struct {
	j     *Journal
	g     *group // nil unless SyncAlways
	n     int
	start time.Time
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
		recs, _, _, err := readSegment(filepath.Join(dir, snapName(snapSeq)), false)
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
	var end int64 // the active segment's valid bytes
	for i, s := range live {
		recs, segEnd, torn, err := readSegment(filepath.Join(dir, segName(s)), i == len(live)-1)
		if err != nil {
			return nil, nil, fmt.Errorf("journal: segment %s: %w", segName(s), err)
		}
		if torn && j.met != nil {
			j.met.cTruncations.Inc()
		}
		replay = append(replay, recs...)
		end = segEnd
	}

	// Position the active segment: the highest live segment, or a fresh one
	// after the snapshot when compaction deleted everything. Cutting it to
	// its valid end drops a torn tail and anything a crash left beyond a
	// zero gap, so a frame that was never acknowledged cannot replay once
	// later appends fill the gap.
	j.seq = snapSeq + 1
	if n := len(live); n > 0 {
		j.seq = live[n-1]
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(j.seq)), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, err
	}
	if err := f.Truncate(end); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: truncate %s: %w", segName(j.seq), err)
	}
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	j.f = f
	j.w = bufio.NewWriterSize(f, 64<<10)
	j.size = end
	j.reserve(end)
	if j.met != nil {
		j.met.gSegmentBytes.Set(float64(j.size))
		j.met.cReplayed.Add(uint64(len(replay)))
		j.met.hReplay.ObserveDuration(time.Since(start))
	}
	if opt.Sync != SyncNone {
		j.kick = make(chan struct{}, 1)
		j.stop = make(chan struct{})
		j.done = make(chan struct{})
		go j.syncer()
	}
	return j, replay, nil
}

// readSegment streams one segment file and returns its records and the
// offset just past the last of them. The records end at EOF or at an
// all-zero record header (whole, or cut short by EOF), where a preallocated
// segment's unwritten space begins. On the active segment the scan stops
// there without reading the zeros, and a torn or corrupt record ends it
// too, reported as torn; on any other segment that damage is an error, and
// so is data after the zeros.
func readSegment(path string, active bool) (recs []Record, end int64, torn bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, false, err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64<<10)
	damaged := func(derr error) ([]Record, int64, bool, error) {
		if !active {
			return nil, 0, false, derr
		}
		return recs, end, true, nil
	}
	var frame []byte
	for {
		var hdr [headerBytes]byte
		k, err := io.ReadFull(r, hdr[:])
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			return nil, 0, false, err
		}
		if allZero(hdr[:k]) {
			if !active {
				zeros, err := zeroToEOF(r)
				if err != nil {
					return nil, 0, false, err
				}
				if !zeros {
					return damaged(fmt.Errorf("%w: data after a zero gap", ErrCorrupt))
				}
			}
			return recs, end, false, nil
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		switch {
		case k < headerBytes:
			return damaged(ErrTorn)
		case n == 0 || n > MaxRecord:
			return damaged(fmt.Errorf("%w: payload length %d", ErrCorrupt, n))
		}
		frame = append(append(frame[:0], hdr[:]...), make([]byte, n)...)
		_, err = io.ReadFull(r, frame[headerBytes:])
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return damaged(ErrTorn)
		}
		if err != nil {
			return nil, 0, false, err
		}
		rec, _, err := DecodeFrame(frame)
		if err != nil {
			return damaged(err)
		}
		recs = append(recs, rec)
		end += int64(len(frame))
	}
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// zeroToEOF reports whether the rest of r is zero bytes, reading it in
// pieces.
func zeroToEOF(r io.Reader) (bool, error) {
	buf := make([]byte, 32<<10)
	for {
		k, err := r.Read(buf)
		if !allZero(buf[:k]) {
			return false, nil
		}
		if err == io.EOF {
			return true, nil
		}
		if err != nil {
			return false, err
		}
	}
}

// reserve preallocates the active segment past end in whole steps, unless
// it already is. It is best effort: where preallocation fails, writes
// extend the file as they land. Caller holds mu.
func (j *Journal) reserve(end int64) {
	if end <= j.alloc {
		return
	}
	alloc := (end/preallocStep + 1) * preallocStep
	if preallocate(j.f, alloc) == nil {
		j.alloc = alloc
	}
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// Append writes rec and waits until it is durable per policy — the
// write-ahead discipline for a caller that applies the mutation only
// afterwards.
func (j *Journal) Append(rec Record) error { return j.AppendBatch([]Record{rec}) }

// AppendBatch writes recs as one unit and waits until they are durable, so
// an N-record batch pays one fsync instead of N.
func (j *Journal) AppendBatch(recs []Record) error {
	c, err := j.Write(recs)
	if err != nil {
		return err
	}
	return c.Wait()
}

// Write frames recs and writes them to the active segment under one lock
// hold, after every earlier Write's records, without waiting for them to be
// durable: under SyncAlways they join the open group, under SyncNone they
// are flushed to the OS, under SyncInterval they wait for the next tick.
// Encoding errors surface before any record is written; a write failure
// leaves an unknown tail, as a failed sync does.
func (j *Journal) Write(recs []Record) (*Commit, error) {
	if len(recs) == 0 {
		return nil, nil
	}
	start := time.Now()
	var buf []byte
	for _, rec := range recs {
		frame, err := EncodeRecord(rec)
		if err != nil {
			return nil, err
		}
		buf = append(buf, frame...)
	}
	if err := fpAppend.Check(); err != nil {
		return nil, fmt.Errorf("journal: append: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil, ErrClosed
	}
	if j.failed != nil {
		return nil, j.failed
	}
	j.reserve(j.size + int64(len(buf)))
	if _, err := j.w.Write(buf); err != nil {
		return nil, fmt.Errorf("journal: append: %w", err)
	}
	j.size += int64(len(buf))
	c := &Commit{j: j, n: len(recs), start: start}
	switch j.opt.Sync {
	case SyncAlways:
		if j.open == nil {
			j.open = &group{done: make(chan struct{})}
		}
		j.open.n += len(recs)
		c.g = j.open
	case SyncNone:
		if err := j.flushLocked(); err != nil {
			return nil, err
		}
	}
	if j.met != nil {
		j.met.gSegmentBytes.Set(float64(j.size))
		if c.g == nil {
			j.met.cAppended.Add(uint64(c.n))
			j.met.hAppend.ObserveDuration(time.Since(start))
		}
	}
	return c, nil
}

// Wait blocks until the commit's records are durable per policy and
// returns the error of the sync that covered them. Call it once.
func (c *Commit) Wait() error {
	if c == nil || c.g == nil {
		return nil
	}
	// Rounds hold syncMu, so once it is ours any round that took this
	// commit's group has finished; if none has, the group is still open and
	// this Wait syncs it for every writer in it. A Close that beat the round
	// finishes the group once syncMu is released.
	j := c.j
	j.syncMu.Lock()
	select {
	case <-c.g.done:
	default:
		j.round()
	}
	j.syncMu.Unlock()
	<-c.g.done
	if c.g.err != nil {
		return c.g.err
	}
	if m := j.met; m != nil {
		m.cAppended.Add(uint64(c.n))
		m.hAppend.ObserveDuration(c.g.at.Sub(c.start))
	}
	return nil
}

// WaitsForSync reports whether Wait waits for a group commit, which is
// the case under SyncAlways.
func (c *Commit) WaitsForSync() bool { return c != nil && c.g != nil }

// Start hands the sync round that covers c to the background syncer now,
// so its fsync runs during the caller's work up to Wait. The hand-off costs
// a thread wake-up on each side, which only work longer than that repays;
// SyncEstimate tells a caller what an overlap can hide.
func (c *Commit) Start() {
	if c.WaitsForSync() {
		select {
		case c.j.kick <- struct{}{}:
		default: // a pending wake-up already covers c
		}
	}
}

// SyncEstimate is a moving average of the journal's fsync latency (zero
// before the first fsync).
func (j *Journal) SyncEstimate() time.Duration { return time.Duration(j.syncEst.Load()) }

// syncer is the journal's background syncer: under SyncAlways it runs a
// round whenever Start wakes it, under SyncInterval on every tick.
func (j *Journal) syncer() {
	defer close(j.done)
	var tick <-chan time.Time
	if j.opt.Sync == SyncInterval {
		t := time.NewTicker(j.opt.SyncInterval)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-j.stop:
			return
		case <-j.kick:
		case <-tick:
		}
		j.syncMu.Lock()
		j.round()
		j.syncMu.Unlock()
	}
}

// round makes everything written so far durable. It takes the open group
// and flushes under mu, then fsyncs with mu released, so writers keep
// filling the next group meanwhile. After a failed sync it syncs nothing
// and fails the group with the first error. Caller holds syncMu.
func (j *Journal) round() {
	j.mu.Lock()
	g := j.open
	if j.closed || (g == nil && j.opt.Sync == SyncAlways) {
		j.mu.Unlock()
		return
	}
	start := time.Now()
	j.open = nil
	err := j.failed
	if err == nil {
		err = j.flushLocked()
	}
	f := j.f
	j.mu.Unlock()
	if err == nil {
		err = j.fsync(f)
	}
	if err != nil {
		j.mu.Lock()
		j.fail(err)
		j.mu.Unlock()
	}
	j.finish(g, err, start)
}

// fail records the first failed sync. Caller holds mu.
func (j *Journal) fail(err error) {
	if j.failed == nil {
		j.failed = err
	}
}

// finish completes group g with the outcome of the sync that covered it:
// the group metrics and flight event, then its waiters. A nil g records
// nothing.
func (j *Journal) finish(g *group, err error, start time.Time) {
	if g == nil {
		return
	}
	if err == nil && j.met != nil {
		j.met.cGroups.Inc()
		j.met.hGroupSize.Observe(uint64(g.n))
	}
	if fr := j.opt.Flight; fr != nil {
		ev := trace.Event{Kind: trace.EvJournalSync, Name: "group-commit",
			Detail: strconv.Itoa(g.n) + " append(s)", Dur: time.Since(start)}
		if err != nil {
			ev.Err = err.Error()
		}
		fr.Record(ev)
	}
	g.err, g.at = err, time.Now()
	close(g.done)
}

func (j *Journal) flushLocked() error {
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("journal: flush: %w", err)
	}
	return nil
}

// fsync makes the bytes written to f durable. The segment's preallocated
// size does not change as records land in it, so a data sync suffices.
func (j *Journal) fsync(f *os.File) error {
	start := time.Now()
	if err := fpSync.Check(); err != nil {
		return fmt.Errorf("journal: sync: %w", err)
	}
	if err := datasync(f); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	d := time.Since(start)
	est := j.syncEst.Load()
	j.syncEst.Store(est + (int64(d)-est)/8) // fsyncs are serialized by syncMu
	if j.met != nil {
		j.met.hSync.ObserveDuration(d)
	}
	return nil
}

// Compact commits a snapshot — records sufficient to rebuild the current
// state, supplied by the controller — and deletes the segments it
// supersedes. The snapshot is written to a temp file, fsynced, and
// atomically renamed before anything is deleted, so a crash at any point
// leaves a recoverable directory. The caller must guarantee no concurrent
// mutations (the controller holds its mutation lock across state capture
// and Compact).
func (j *Journal) Compact(snapshot []Record) (err error) {
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	// The snapshot supersedes everything up to and including the active
	// segment; make the active segment durable first so a failed compaction
	// loses nothing. That sync covers the open group too.
	start := time.Now()
	serr := j.failed
	if serr == nil {
		serr = j.flushLocked()
	}
	if serr == nil {
		serr = j.fsync(j.f)
	}
	if serr != nil {
		j.fail(serr)
	}
	j.finish(j.open, serr, start)
	j.open = nil
	if serr != nil {
		return serr
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
	nf, err := os.OpenFile(filepath.Join(j.dir, segName(coverSeq+1)), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	j.f.Truncate(j.size) // should its deletion fail, it holds no preallocated zeros
	j.f.Close()
	j.f = nf
	j.w = bufio.NewWriterSize(nf, 64<<10)
	j.seq = coverSeq + 1
	j.size, j.alloc = 0, 0
	j.reserve(0)
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

// SegmentBytes reports the bytes of records in the active segment, not
// counting its preallocated space (tests, status lines).
func (j *Journal) SegmentBytes() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Close flushes and fsyncs outstanding appends, cuts the active segment to
// its records and closes the journal. An orderly shutdown therefore never
// loses the sync-interval tail and leaves no preallocated space. Close is
// idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.mu.Unlock()
	if j.stop != nil {
		close(j.stop)
		<-j.done
	}
	j.syncMu.Lock()
	defer j.syncMu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	start := time.Now()
	err := j.failed
	if err == nil {
		err = j.w.Flush()
		if err == nil {
			err = j.f.Truncate(j.size)
		}
		if serr := j.f.Sync(); serr != nil && err == nil {
			err = serr
		}
	}
	// Writes that no sync round took yet are made durable here.
	j.finish(j.open, err, start)
	j.open = nil
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
