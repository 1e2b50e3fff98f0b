// Package wire implements P4runpro's control channel as a newline-delimited
// JSON-RPC protocol over TCP — the stand-in for the prototype's bfrt_grpc
// session between the runtime CLI and the switch (paper §5). A daemon
// (cmd/p4rpd) wraps a Controller and serves the program lifecycle, memory
// access, monitoring, and (for experimentation) packet injection; the
// client (cmd/p4rpctl and the examples) provides typed calls.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// Request is one RPC call. Params' shape depends on Method. Frames
// announces how many length-prefixed binary frames (see frame.go) follow
// this line on the connection — only the bulk verbs use them; a zero
// count is the classic pure-JSON request.
type Request struct {
	ID     int64           `json:"id"`
	Method string          `json:"method"`
	Params json.RawMessage `json:"params,omitempty"`
	Frames int             `json:"frames,omitempty"`
	// Trace is the caller's span context ("<32 hex>-<16 hex>", see
	// internal/obs/trace) correlating this request into a distributed
	// trace. Optional; a missing or garbled value simply starts a fresh
	// server-side trace — it can never fail a request.
	Trace string `json:"tr,omitempty"`
}

// ParseRequest parses one newline-stripped request line into a Request,
// rejecting non-JSON input and requests without a method. This is the
// server's first touch of untrusted bytes (and a fuzz target —
// FuzzProtoParse).
func ParseRequest(line []byte) (Request, error) {
	var req Request
	if err := json.Unmarshal(line, &req); err != nil {
		return Request{}, fmt.Errorf("malformed request: %w", err)
	}
	if req.Method == "" {
		return Request{}, errors.New("malformed request: empty method")
	}
	return req, nil
}

// Response answers one Request. Exactly one of Error/Result is
// meaningful. Frames announces trailing binary frames exactly like
// Request.Frames (mem.readstream answers with its chunks framed).
type Response struct {
	ID     int64           `json:"id"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	Frames int             `json:"frames,omitempty"`
}

// OpError is a server-reported (application-level) failure of one
// operation. It is distinct from transport errors: the connection that
// carried it is still healthy, responses keep flowing, and — inside a
// Pipeline — other operations in the same batch are unaffected. Its
// Error string keeps the historical "wire: <message>" shape.
type OpError struct {
	Method string // the method that failed
	Msg    string // the server's error text
}

func (e *OpError) Error() string { return "wire: " + e.Msg }

// Method names.
const (
	MethodDeploy      = "deploy"
	MethodDeployPlan  = "deploy.plan"
	MethodRevoke      = "revoke"
	MethodPrograms    = "programs"
	MethodMemRead     = "mem.read"
	MethodMemWrite    = "mem.write"
	MethodUtilization = "utilization"
	MethodInject      = "inject"
	MethodStatus      = "status"
	MethodAddCases    = "case.add"
	MethodRemoveCase  = "case.remove"
	MethodMcastSet    = "mcast.set"
	MethodMetrics     = "metrics"
	MethodSnapshot    = "snapshot"
)

// Bulk method names. These are the mass-operation fast path: one request
// carries many programs or many memory words, the server validates and
// applies them under a single controller lock acquisition and a single
// journal group, and big payloads ride in binary frames instead of JSON.
const (
	MethodDeployBatch   = "deploy.batch"
	MethodMemWriteBatch = "mem.writebatch"
	MethodMemReadStream = "mem.readstream"
)

// DeployBatchParams carries N independent source blobs to link in one
// round trip. Atomic selects all-or-nothing semantics: the first blob
// that fails to link unwinds every blob this request already linked and
// fails the whole call. Non-atomic batches link what they can and report
// per-blob outcomes.
type DeployBatchParams struct {
	Sources []string `json:"sources"`
	Atomic  bool     `json:"atomic,omitempty"`
}

// DeployBatchItem is one source blob's outcome in a non-atomic batch
// (and, for atomic batches, one successful blob's report).
type DeployBatchItem struct {
	Programs []DeployResult `json:"programs,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// DeployBatchResult reports a deploy.batch: one item per requested
// source, in request order.
type DeployBatchResult struct {
	Items    []DeployBatchItem `json:"items"`
	Deployed int               `json:"deployed"` // blobs that linked
}

// MemWriteEntry is one (bucket, value) write of a memory batch.
type MemWriteEntry struct {
	Addr  uint32 `json:"addr"`
	Value uint32 `json:"value"`
}

// MemWriteBatchParams writes N buckets of one program's memory block in
// a single journaled group. The (addr, value) pairs arrive as the
// request's one binary frame (EncodeWritePairs layout).
type MemWriteBatchParams struct {
	Program string `json:"program"`
	Mem     string `json:"mem"`
}

// MemWriteBatchResult reports how many buckets a mem.writebatch wrote.
type MemWriteBatchResult struct {
	Written int `json:"written"`
}

// MemReadStreamParams addresses a large virtual memory range to be
// returned as binary frames rather than one giant JSON array.
type MemReadStreamParams struct {
	Program string `json:"program"`
	Mem     string `json:"mem"`
	Addr    uint32 `json:"addr"`
	Count   uint32 `json:"count"`
}

// MemReadStreamResult describes the framed payload that follows the
// response line: Count little-endian uint32s in 64 KB frames (16,384
// words; the last may be shorter), which the line's "frames" counts.
type MemReadStreamResult struct {
	Count uint32 `json:"count"`
}

// Versioned-upgrade method names (single-switch daemon). start links v2
// alongside v1 with its filters withheld; cutover flips which version new
// packets run, one atomic batch of init entries per table; commit retires
// v1; abort rolls back to pure v1. status is read-only and also carries switch-wide packet/drop
// totals so a fleet driver can compute health windows from deltas.
const (
	MethodUpgradeStart   = "upgrade.start"
	MethodUpgradeCutover = "upgrade.cutover"
	MethodUpgradeCommit  = "upgrade.commit"
	MethodUpgradeAbort   = "upgrade.abort"
	MethodUpgradeStatus  = "upgrade.status"
)

// UpgradeStartParams carries the program to upgrade and its v2 source (a
// single program with the same name).
type UpgradeStartParams struct {
	Program string `json:"program"`
	Source  string `json:"source"`
}

// UpgradeCutoverParams selects which version new packets run (1 or 2).
type UpgradeCutoverParams struct {
	Program string `json:"program"`
	Version int    `json:"version"`
}

// UpgradeNameParams names an in-flight upgrade (commit/abort/status).
type UpgradeNameParams struct {
	Program string `json:"program"`
}

// UpgradeStatusResult snapshots one upgrade session plus the switch-wide
// traffic counters health gating samples.
type UpgradeStatusResult struct {
	Program       string `json:"program"`
	V2Name        string `json:"v2_name"`
	State         string `json:"state"` // prepared | cutover | committed | aborted
	ActiveVersion int    `json:"active_version"`
	V1PID         uint16 `json:"v1_pid"`
	V2PID         uint16 `json:"v2_pid"`
	V1Packets     uint64 `json:"v1_packets"`
	V2Packets     uint64 `json:"v2_packets"`
	MigratedWords uint32 `json:"migrated_words"`
	CutoverNs     int64  `json:"cutover_ns"`
	// SwitchPackets/SwitchDrops are the member's cumulative injected and
	// dropped packet counts at sample time; the fleet's health gate turns
	// two samples into a windowed drop rate.
	SwitchPackets uint64 `json:"switch_packets"`
	SwitchDrops   uint64 `json:"switch_drops"`
}

// SnapshotResult reports a committed journal snapshot + compaction cycle.
type SnapshotResult struct {
	WalDir       string `json:"wal_dir"`
	SegmentBytes int64  `json:"segment_bytes"` // active segment size after compaction
}

// Fleet method names, served by a daemon running in fleet mode
// (cmd/p4rpd -fleet). The handlers live in internal/fleet and are attached
// to a Server through Handle; this file only defines the shared DTOs so
// client and server agree without wire importing fleet.
const (
	MethodFleetDeploy      = "fleet.deploy"
	MethodFleetRevoke      = "fleet.revoke"
	MethodFleetPrograms    = "fleet.programs"
	MethodFleetMembers     = "fleet.members"
	MethodFleetUtilization = "fleet.utilization"
	MethodFleetMemRead     = "fleet.memread"
	MethodFleetUpgrade     = "fleet.upgrade"
)

// FleetUpgradeParams drives a health-gated rolling upgrade of one
// deployment unit: canaries cut over first, soak under traffic, and the
// remaining members follow in stages only while the health gates hold.
// Durations are milliseconds so the DTO stays integer-typed on the wire.
type FleetUpgradeParams struct {
	Name   string `json:"name"`   // program or unit key
	Source string `json:"source"` // v2 source
	// Canaries (default 1) cut over first; StageSize (default 1) bounds
	// each later wave.
	Canaries  int `json:"canaries,omitempty"`
	StageSize int `json:"stage_size,omitempty"`
	// SoakMs is how long each wave carries traffic before its health
	// window is judged.
	SoakMs int64 `json:"soak_ms,omitempty"`
	// MaxDropRate (fraction of switch packets dropped during the soak
	// window) and MinV2PPS (v2 packets/sec the gate must observe) are the
	// health gates; zero MaxDropRate means "no worse than 100%", i.e.
	// disabled, and zero MinV2PPS disables the traffic floor.
	MaxDropRate float64 `json:"max_drop_rate,omitempty"`
	MinV2PPS    float64 `json:"min_v2_pps,omitempty"`
}

// FleetUpgradeResult reports a finished rollout: every member either
// committed to v2, stayed pinned to v1 (down, or its call failed — it
// keeps v1, since reconciliation does not compare versions), or — when
// RolledBack — was rolled back to v1 because a health gate failed.
type FleetUpgradeResult struct {
	Unit       string   `json:"unit"`
	Committed  []string `json:"committed,omitempty"`
	Pinned     []string `json:"pinned,omitempty"`
	RolledBack bool     `json:"rolled_back,omitempty"`
	Reason     string   `json:"reason,omitempty"` // rollback cause
	Waves      int      `json:"waves"`            // cutover waves executed (incl. canary)
}

// FleetDeployParams carries source text plus the desired replica count
// (0 means the fleet's default policy decides).
type FleetDeployParams struct {
	Source   string `json:"source"`
	Replicas int    `json:"replicas,omitempty"`
}

// FleetDeployResult reports one placed deployment unit.
type FleetDeployResult struct {
	Unit     string   `json:"unit"`
	Programs []string `json:"programs"`
	Members  []string `json:"members"`
	Entries  int      `json:"entries"`
	MemWords uint32   `json:"mem_words"`
}

// FleetRevokeParams names a program (or deployment unit) to revoke
// fleet-wide.
type FleetRevokeParams struct {
	Name string `json:"name"`
}

// FleetRevokeResult reports which programs were removed from which members.
type FleetRevokeResult struct {
	Unit     string   `json:"unit"`
	Programs []string `json:"programs"`
	Members  []string `json:"members"`
}

// FleetProgramInfo is the fan-in view of one program across the fleet.
type FleetProgramInfo struct {
	Name     string   `json:"name"`
	Unit     string   `json:"unit"`
	Replicas int      `json:"replicas"`
	Desired  int      `json:"desired"`
	Members  []string `json:"members"`
	Entries  int      `json:"entries"`
	MemWords uint32   `json:"mem_words"`
	Hits     uint64   `json:"hits"`
}

// FleetMemberInfo reports one member's health and occupancy.
type FleetMemberInfo struct {
	Name         string  `json:"name"`
	State        string  `json:"state"`
	ConsecFails  int     `json:"consec_fails"`
	LastError    string  `json:"last_error,omitempty"`
	Programs     int     `json:"programs"`
	MemFrac      float64 `json:"mem_frac"`
	EntryFrac    float64 `json:"entry_frac"`
	LastProbeAge string  `json:"last_probe_age,omitempty"`
}

// FleetUtilRow is one member's per-RPB utilization in a fleet fan-out.
type FleetUtilRow struct {
	Member string           `json:"member"`
	Rows   []UtilizationRow `json:"rows"`
}

// Gather-scatter aggregation modes for fleet memory reads across replicas.
const (
	FleetAggSum   = "sum"
	FleetAggMax   = "max"
	FleetAggFirst = "first"
)

// FleetMemReadParams addresses a virtual memory range fleet-wide. Agg
// selects how per-replica values combine (default sum — the paper's
// programs are predominantly counters and sketches).
type FleetMemReadParams struct {
	Program string `json:"program"`
	Mem     string `json:"mem"`
	Addr    uint32 `json:"addr"`
	Count   uint32 `json:"count"`
	Agg     string `json:"agg,omitempty"`
}

// FleetMemReadResult carries aggregated values and how many replicas
// contributed.
type FleetMemReadResult struct {
	Values   []uint32 `json:"values"`
	Replicas int      `json:"replicas"`
	Agg      string   `json:"agg"`
}

// Telemetry method names, served by a daemon whose controller runs a
// telemetry sweep engine (internal/telemetry). Like the fleet verbs, the
// handlers attach through Server.Handle so wire stays import-free of the
// telemetry package; this file defines only the shared DTOs.
const (
	MethodTelemetryPrograms  = "telemetry.programs"
	MethodTelemetryPostcards = "telemetry.postcards"
	MethodFleetTop           = "fleet.top"
)

// TelemetryProgramRow is one program's windowed runtime telemetry: cumulative
// counters plus rates computed by the sweep engine over its sample window.
type TelemetryProgramRow struct {
	Program   string `json:"program"`
	ProgramID uint16 `json:"program_id"`
	// Hits counts every entry hit the program owns (one per executed
	// primitive); PacketHits counts init-table hits only (one per matched
	// packet per pass) and is the basis for PPS.
	Hits       uint64  `json:"hits"`
	PacketHits uint64  `json:"packet_hits"`
	PPS        float64 `json:"pps"`
	// HitRatio is the fraction of the switch's injected packets this
	// program matched over the window (windowed packet-hit rate over
	// windowed injection rate); 0 when the switch was idle.
	HitRatio float64 `json:"hit_ratio"`
	MemWords uint32  `json:"mem_words"`
	// MemGrowthWPS is the windowed growth rate of the program's allocated
	// stateful words per second — negative when an incremental update
	// shrank the allocation.
	MemGrowthWPS float64 `json:"mem_growth_wps"`
	Entries      int     `json:"entries"`
	// RPBEntries maps RPB id -> entries the program holds in that block.
	RPBEntries map[int]int `json:"rpb_entries,omitempty"`
	Samples    int         `json:"samples"`   // sweep samples behind the rates
	WindowMs   int64       `json:"window_ms"` // time span those samples cover
	// Members lists contributing fleet members in a fleet.top fan-in row;
	// empty for a single switch.
	Members []string `json:"members,omitempty"`
}

// TelemetryProgramsResult is one scrape of the sweep engine.
type TelemetryProgramsResult struct {
	Rows []TelemetryProgramRow `json:"rows"`
	// SwitchPPS is the windowed injection rate; ForwardedPPS counts only
	// packets the traffic manager forwarded out a port.
	SwitchPPS    float64 `json:"switch_pps"`
	ForwardedPPS float64 `json:"forwarded_pps"`
	Sweeps       uint64  `json:"sweeps"`
	IntervalMs   int64   `json:"interval_ms"`
}

// TelemetryPostcardsParams filters the postcard ring: Owner restricts to
// packets that matched an entry of that program; Limit bounds the count
// (0 = the whole ring).
type TelemetryPostcardsParams struct {
	Owner string `json:"owner,omitempty"`
	Limit int    `json:"limit,omitempty"`
}

// PostcardHopJSON is one executed match-action step of a sampled packet.
type PostcardHopJSON struct {
	Gress  string `json:"gress"`
	Stage  int    `json:"stage"`
	Table  string `json:"table"`
	Action string `json:"action,omitempty"`
	Owner  string `json:"owner,omitempty"`
	Match  bool   `json:"match"`
}

// PostcardJSON is one sampled packet's recorded path.
type PostcardJSON struct {
	Seq    uint64 `json:"seq"`
	InPort int    `json:"in_port"`
	PathID uint64 `json:"path_id,omitempty"` // fabric path-trace ID

	Flow      string            `json:"flow"`
	Verdict   string            `json:"verdict"`
	OutPort   int               `json:"out_port"`
	Passes    int               `json:"passes"`
	Recircs   int               `json:"recircs"`
	LatencyNs int64             `json:"latency_ns"`
	Hops      []PostcardHopJSON `json:"hops"`
	Truncated bool              `json:"truncated,omitempty"`
}

// TelemetryPostcardsResult carries the sampling config and the matching
// postcards, oldest first.
type TelemetryPostcardsResult struct {
	Every     int            `json:"every"` // sample 1 in every N; 0 = disabled
	Keep      int            `json:"keep"`  // ring capacity
	Count     uint64         `json:"count"` // postcards recorded since boot
	Postcards []PostcardJSON `json:"postcards"`
}

// Metrics exposition formats accepted by MethodMetrics.
const (
	MetricsFormatPrometheus = "prometheus"
	MetricsFormatJSON       = "json"
)

// MetricsParams selects the exposition format; empty means Prometheus text.
type MetricsParams struct {
	Format string `json:"format,omitempty"`
}

// MetricsResult carries one rendered scrape of the controller's registry:
// deploy/revoke latency histograms, compiler phase and solver-effort
// histograms, per-stage RMT counters, and per-RPB occupancy gauges.
type MetricsResult struct {
	Format string `json:"format"`
	Body   string `json:"body"`
}

// AddCasesParams extends a running program's BRANCH (incremental update).
type AddCasesParams struct {
	Program     string `json:"program"`
	BranchDepth int    `json:"branch_depth"`
	Source      string `json:"source"`
}

// AddCasesResult reports the runtime-assigned branch IDs.
type AddCasesResult struct {
	BranchIDs   []int         `json:"branch_ids"`
	Entries     int           `json:"entries"`
	UpdateDelay time.Duration `json:"update_delay"`
}

// RemoveCaseParams removes a runtime-added case.
type RemoveCaseParams struct {
	Program  string `json:"program"`
	BranchID int    `json:"branch_id"`
}

// McastSetParams configures a multicast group.
type McastSetParams struct {
	Group int   `json:"group"`
	Ports []int `json:"ports"`
}

// DeployParams carries P4runpro source text.
type DeployParams struct {
	Source string `json:"source"`
}

// DeployResult reports one linked program.
type DeployResult struct {
	Program     string        `json:"program"`
	ProgramID   uint16        `json:"program_id"`
	Entries     int           `json:"entries"`
	AllocTime   time.Duration `json:"alloc_time"`
	UpdateDelay time.Duration `json:"update_delay"`
	Total       time.Duration `json:"total"`
}

// PlanResult reports how one program of a deploy.plan source (its params
// are DeployParams) would link on the switch's live state. Nothing was
// installed.
type PlanResult struct {
	Program    string          `json:"program"`
	Passes     int             `json:"passes"`
	Entries    int             `json:"entries"`
	MemWords   uint32          `json:"mem_words"`
	Placements []PlanPlacement `json:"placements"`
	Blocks     []PlanBlock     `json:"blocks,omitempty"`
}

// PlanPlacement is one depth's placement: its logical and physical RPB,
// its recirculation pass, and its primitives as "b<branch>:<primitive>".
type PlanPlacement struct {
	Depth      int      `json:"depth"`
	Logical    int      `json:"logical"`
	RPB        int      `json:"rpb"`
	Pass       int      `json:"pass"`
	Primitives []string `json:"primitives"`
}

// PlanBlock is where one declared memory would be carved.
type PlanBlock struct {
	Mem   string `json:"mem"`
	RPB   int    `json:"rpb"`
	Start uint32 `json:"start"`
	Size  uint32 `json:"size"`
}

// RevokeParams names a program.
type RevokeParams struct {
	Name string `json:"name"`
}

// RevokeResult reports a termination.
type RevokeResult struct {
	Entries     int           `json:"entries"`
	MemReset    uint32        `json:"mem_reset"`
	UpdateDelay time.Duration `json:"update_delay"`
}

// ProgramInfo mirrors controlplane.ProgramInfo for listings.
type ProgramInfo struct {
	Name      string `json:"name"`
	ProgramID uint16 `json:"program_id"`
	Depths    int    `json:"depths"`
	Entries   int    `json:"entries"`
	MemWords  uint32 `json:"mem_words"`
	Passes    int    `json:"passes"`
	Hits      uint64 `json:"hits"`
}

// MemReadParams addresses a virtual memory range.
type MemReadParams struct {
	Program string `json:"program"`
	Mem     string `json:"mem"`
	Addr    uint32 `json:"addr"`
	Count   uint32 `json:"count"`
}

// MemWriteParams writes one bucket.
type MemWriteParams struct {
	Program string `json:"program"`
	Mem     string `json:"mem"`
	Addr    uint32 `json:"addr"`
	Value   uint32 `json:"value"`
}

// UtilizationRow is one RPB's dynamic usage.
type UtilizationRow struct {
	RPB         int     `json:"rpb"`
	EntriesUsed int     `json:"entries_used"`
	EntriesCap  int     `json:"entries_cap"`
	MemUsed     uint32  `json:"mem_used"`
	MemCap      uint32  `json:"mem_cap"`
	MemFrac     float64 `json:"mem_frac"`
}

// InjectParams carries one wire frame (hex-encoded) for test injection.
type InjectParams struct {
	FrameHex string `json:"frame_hex"`
	Port     int    `json:"port"`
}

// InjectResult summarizes the packet's fate.
type InjectResult struct {
	Verdict  string `json:"verdict"`
	OutPort  int    `json:"out_port"`
	Passes   int    `json:"passes"`
	FrameHex string `json:"frame_hex"` // the (possibly rewritten) packet
}

// Observability method names. debug.ops lists recent or slowest traces
// from the server's trace store, debug.trace fetches one trace by ID, and
// debug.flightrec dumps the flight recorder. fleet.ops is the fleet-merged
// view: the aggregator's own traces unioned with every member's, stitched
// by trace ID. These verbs are served even before a controller is
// attached, so a misbehaving daemon can still be inspected.
const (
	MethodDebugOps       = "debug.ops"
	MethodDebugTrace     = "debug.trace"
	MethodDebugFlightrec = "debug.flightrec"
	MethodFleetOps       = "fleet.ops"
)

// OpsParams filters a debug.ops / fleet.ops listing. Slow selects the
// per-verb slow-exemplar store instead of the recency ring; Verb restricts
// to one verb (only meaningful with Slow); Limit bounds the count
// (0 = server default).
type OpsParams struct {
	Slow  bool   `json:"slow,omitempty"`
	Verb  string `json:"verb,omitempty"`
	Limit int    `json:"limit,omitempty"`
}

// SpanJSON is one span of a trace on the wire.
type SpanJSON struct {
	ID      string            `json:"id"`
	Parent  string            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartNs int64             `json:"start_ns"` // unix nanoseconds
	DurUs   int64             `json:"dur_us"`
	Tags    map[string]string `json:"tags,omitempty"`
}

// TraceJSON is one complete trace on the wire: identity, the root verb,
// and the flat span set (the tree is reconstructed from parent links).
type TraceJSON struct {
	ID      string     `json:"id"`
	Verb    string     `json:"verb"`
	StartNs int64      `json:"start_ns"`
	DurUs   int64      `json:"dur_us"`
	Remote  bool       `json:"remote,omitempty"` // root lives on another node
	Spans   []SpanJSON `json:"spans"`
}

// OpsResult lists traces, newest (or slowest) first.
type OpsResult struct {
	Traces []TraceJSON `json:"traces"`
}

// TraceGetParams names one trace by its 32-hex ID.
type TraceGetParams struct {
	ID string `json:"id"`
}

// FlightEventJSON is one flight-recorder event on the wire.
type FlightEventJSON struct {
	At     string `json:"at"`
	Kind   string `json:"kind"`
	Name   string `json:"name,omitempty"`
	Detail string `json:"detail,omitempty"`
	DurUs  int64  `json:"dur_us,omitempty"`
	Err    string `json:"err,omitempty"`
	Trace  string `json:"trace,omitempty"`
}

// FlightRecResult dumps the flight recorder, oldest event first.
// Dropped is never set: the recorder loses no event. The field stays for
// wire compatibility.
type FlightRecResult struct {
	Dropped uint64            `json:"dropped,omitempty"`
	Events  []FlightEventJSON `json:"events"`
}
