// Package fleet is P4runpro's scale-out control plane: one API over N
// member switches. The paper's controller (§5) drives a single Tofino
// through one bfrt_grpc session; a production deployment runs many
// switches, and runtime programmability then becomes a placement problem
// (which member has headroom for a program's compiled footprint), a
// health problem (members stall, daemons die), and a consistency problem
// (deployed state must keep matching controller intent — the runtime-
// verification concern fleet-wide).
//
// The Fleet holds a desired-state store of deployment units, places them
// on members through pluggable policies (best-fit, spread, replicate-k)
// scored by utilization headroom against a footprint estimated on a
// scratch compiler, probes member health with timeouts and backoff
// (healthy → suspect → down), and runs a reconcile loop that re-deploys a
// down member's units to survivors and reverses divergence between
// desired and actual state. Reads (programs, utilization, memory)
// fan out to live members and fan in aggregated, so single-member
// failures never fail a fleet API call while a replica survives.
package fleet

import (
	"context"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"p4runpro/internal/controlplane"
	"p4runpro/internal/core"
	"p4runpro/internal/obs"
	"p4runpro/internal/obs/trace"
	"p4runpro/internal/rmt"
	"p4runpro/internal/wire"
)

// State is a member's health.
type State int

// Member states: Healthy serves everything; Suspect (probes failing, not
// yet past the down threshold) still serves reads; Down members are
// excluded everywhere and their units fail over.
const (
	Healthy State = iota
	Suspect
	Down
)

// String renders the state for listings and metric labels.
func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Down:
		return "down"
	}
	return "unknown"
}

// Options tunes a Fleet. The zero value is usable: spread placement,
// single replica, 1s probes with 5s timeout, down after 3 consecutive
// failures, 2s reconcile cadence.
type Options struct {
	// Policy ranks members for placement; a ReplicateK policy also sets
	// the default replica count. Default Spread{}.
	Policy Policy
	// ProbeInterval is the health-check cadence for healthy members;
	// failing members are re-probed on an exponential backoff from half
	// this interval up to ProbeBackoffMax.
	ProbeInterval   time.Duration
	ProbeTimeout    time.Duration
	ProbeBackoffMax time.Duration
	// DownAfter is the consecutive-failure threshold for marking a member
	// down (below it the member is suspect).
	DownAfter int
	// ReconcileInterval is the desired-vs-actual diff cadence; a member
	// going down also kicks an immediate pass.
	ReconcileInterval time.Duration
	// ScratchConfig/ScratchOptions configure the private controller used
	// for footprint estimation; they should match the members' provisioning.
	ScratchConfig  rmt.Config
	ScratchOptions core.Options
	// Logger receives fleet events; nil is silent (still counted).
	Logger *log.Logger
}

func (o Options) withDefaults() Options {
	if o.Policy == nil {
		o.Policy = Spread{}
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 5 * time.Second
	}
	if o.ProbeBackoffMax <= 0 {
		o.ProbeBackoffMax = 8 * o.ProbeInterval
	}
	if o.DownAfter <= 0 {
		o.DownAfter = 3
	}
	if o.ReconcileInterval <= 0 {
		o.ReconcileInterval = 2 * time.Second
	}
	if o.ScratchConfig.TableCapacity == 0 {
		o.ScratchConfig = rmt.DefaultConfig()
	}
	if o.ScratchOptions.MaxRecirc == 0 {
		o.ScratchOptions = core.DefaultOptions()
	}
	return o
}

// member is one managed switch and its health record.
type member struct {
	name string
	b    Member

	// Guarded by Fleet.mu.
	state       State
	consecFails int
	lastErr     error
	lastProbe   time.Time
	nextProbe   time.Time
	probing     bool
	util        []wire.UtilizationRow
	programs    int
}

// Fleet manages N member switches behind one control API.
type Fleet struct {
	// Obs is the fleet's metrics registry: probe/failover/reconcile
	// counters, placement latency, and per-member health/occupancy gauges.
	Obs *obs.Registry

	opt   Options
	log   *obs.Logger
	store *Store

	// intentMu serializes intent mutations (Deploy, Revoke, reconcile)
	// so the store and members never see interleaved placements. scratch
	// is only touched under it.
	intentMu sync.Mutex
	scratch  *controlplane.Controller

	mu      sync.Mutex
	members map[string]*member
	order   []string

	kick chan struct{}
	done chan struct{}
	wg   sync.WaitGroup

	m fleetMetrics

	// tracer and flight, when set by SetTracing, record fleet operation
	// span trees (placement, per-member fan-out) and flight-recorder
	// events (deploys, health transitions, reconcile decisions, rollout
	// phases). Nil leaves the fleet untraced.
	tracer *trace.Tracer
	flight *trace.FlightRecorder
}

// New builds an empty fleet; add members with AddMember, then Start the
// health and reconcile loops.
func New(opt Options) *Fleet {
	opt = opt.withDefaults()
	f := &Fleet{
		Obs:     obs.NewRegistry(),
		opt:     opt,
		store:   NewStore(),
		members: make(map[string]*member),
		kick:    make(chan struct{}, 1),
	}
	f.log = obs.NewLogger(opt.Logger, f.Obs, "fleet")
	f.initMetrics()
	return f
}

// Store exposes the desired-state store (read-mostly; mutate through
// Deploy/Revoke).
func (f *Fleet) Store() *Store { return f.store }

// AddMember registers a member (Local or DialMember) under a unique name and
// probes it once synchronously so placement has an initial utilization
// view. The probe failing doesn't reject the member — it just starts
// suspect.
func (f *Fleet) AddMember(name string, b Member) error {
	if name == "" {
		return fmt.Errorf("fleet: member name must not be empty")
	}
	f.mu.Lock()
	if _, ok := f.members[name]; ok {
		f.mu.Unlock()
		return fmt.Errorf("fleet: member %q already registered", name)
	}
	m := &member{name: name, b: b}
	f.members[name] = m
	f.order = append(f.order, name)
	f.mu.Unlock()
	f.registerMemberMetrics(name)
	f.probe(m)
	return nil
}

// Members reports every member's health and occupancy, sorted by
// registration order.
func (f *Fleet) Members() []wire.FleetMemberInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]wire.FleetMemberInfo, 0, len(f.order))
	for _, name := range f.order {
		m := f.members[name]
		info := wire.FleetMemberInfo{
			Name:        name,
			State:       m.state.String(),
			ConsecFails: m.consecFails,
			Programs:    m.programs,
		}
		if m.lastErr != nil {
			info.LastError = m.lastErr.Error()
		}
		if !m.lastProbe.IsZero() {
			info.LastProbeAge = time.Since(m.lastProbe).Round(time.Millisecond).String()
		}
		info.MemFrac, info.EntryFrac = usedFracs(m.util)
		out = append(out, info)
	}
	return out
}

// usedFracs aggregates a utilization snapshot into chip-wide fractions.
func usedFracs(rows []wire.UtilizationRow) (mem, ent float64) {
	var memUsed, memCap uint64
	var entUsed, entCap int
	for _, r := range rows {
		memUsed += uint64(r.MemUsed)
		memCap += uint64(r.MemCap)
		entUsed += r.EntriesUsed
		entCap += r.EntriesCap
	}
	if memCap > 0 {
		mem = float64(memUsed) / float64(memCap)
	}
	if entCap > 0 {
		ent = float64(entUsed) / float64(entCap)
	}
	return mem, ent
}

// view builds a placement candidate from a member's cached utilization.
func view(m *member, units int) MemberView {
	v := MemberView{Name: m.name, Units: units}
	for _, r := range m.util {
		v.EntriesFree += r.EntriesCap - r.EntriesUsed
		v.MemFree += r.MemCap - r.MemUsed
		v.EntriesCap += r.EntriesCap
		v.MemCap += r.MemCap
	}
	return v
}

// liveViews snapshots placement candidates: healthy members not in skip.
func (f *Fleet) liveViews(skip map[string]bool) []MemberView {
	unitCount := make(map[string]int)
	for _, u := range f.store.List() {
		for _, m := range u.Members {
			unitCount[m]++
		}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]MemberView, 0, len(f.order))
	for _, name := range f.order {
		m := f.members[name]
		if m.state != Healthy || skip[name] {
			continue
		}
		out = append(out, view(m, unitCount[name]))
	}
	return out
}

// liveMembers returns the named members that are not Down (suspect
// members still serve; down ones are excluded).
func (f *Fleet) liveMembers(names []string) []*member {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*member, 0, len(names))
	for _, n := range names {
		if m, ok := f.members[n]; ok && m.state != Down {
			out = append(out, m)
		}
	}
	return out
}

// live returns every member that is not Down, in registration order.
func (f *Fleet) live() []*member {
	f.mu.Lock()
	names := append([]string(nil), f.order...)
	f.mu.Unlock()
	return f.liveMembers(names)
}

func (f *Fleet) member(name string) (*member, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.members[name]
	return m, ok
}

// footprint estimates a source blob's compiled demand by linking it on
// the fleet's private scratch controller and immediately revoking it.
// Called with intentMu held.
func (f *Fleet) footprint(source string) (names []string, fp Footprint, err error) {
	if f.scratch == nil {
		f.scratch, err = controlplane.New(f.opt.ScratchConfig, f.opt.ScratchOptions)
		if err != nil {
			return nil, fp, fmt.Errorf("fleet: scratch controller: %w", err)
		}
	}
	lps, err := f.scratch.Compiler.Link(source)
	if err != nil {
		return nil, fp, err
	}
	for _, lp := range lps {
		names = append(names, lp.Name)
		fp.Entries += lp.Stats.EntryCount
		fp.MemWords += lp.Stats.MemWords
	}
	for _, n := range names {
		if _, err := f.scratch.Compiler.Revoke(n); err != nil {
			return nil, fp, fmt.Errorf("fleet: scratch revoke %s: %w", n, err)
		}
	}
	return names, fp, nil
}

// Deploy places source on the fleet: estimate the footprint, rank healthy
// members by policy, deploy to the first k that accept (k = replicas, or
// the policy's default when 0), and record the unit in the desired-state
// store. Partial placement (fewer than k but at least one replica)
// succeeds; the reconcile loop tops it up as capacity appears.
//
// Under the trace carried by ctx, footprint estimation, lock wait, and
// each member's deploy become attributed child spans (one fan-out span per
// member), and the placement lands in the flight recorder.
func (f *Fleet) Deploy(ctx context.Context, source string, reps int) (res []wire.FleetDeployResult, err error) {
	ctx, sp, owned := f.opSpan(ctx, "fleet.deploy")
	if owned {
		defer sp.End()
	}
	start := time.Now()
	defer func() {
		f.m.hPlacementNs.ObserveDuration(time.Since(start))
		if err != nil {
			f.m.cDeployErr.Inc()
		} else {
			f.m.cDeployOK.Inc()
		}
		unit := ""
		if len(res) > 0 {
			unit = res[0].Unit
		}
		f.flightOp(trace.EvDeploy, unit, "placement", start, err, sp)
	}()
	lstart := time.Now()
	f.intentMu.Lock()
	sp.ChildAt("lock.wait", lstart, time.Since(lstart))
	defer f.intentMu.Unlock()

	fstart := time.Now()
	names, fp, err := f.footprint(source)
	sp.ChildAt("footprint", fstart, time.Since(fstart))
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("fleet: source links no programs")
	}
	for _, n := range names {
		if k, ok := f.store.OwnerOf(n); ok {
			return nil, fmt.Errorf("fleet: program %q already deployed in unit %q", n, k)
		}
	}
	if reps <= 0 {
		reps = replicas(f.opt.Policy)
	}

	ranked, err := f.opt.Policy.Place(f.liveViews(nil), fp)
	if err != nil {
		return nil, err
	}
	placed := f.deployRanked(ctx, source, names, ranked, reps)
	if len(placed) == 0 {
		return nil, fmt.Errorf("fleet: no member accepted %q (tried %d)", UnitKey(names), len(ranked))
	}
	u := &Unit{
		Key: UnitKey(names), Source: source, Programs: names,
		Replicas: reps, Members: placed,
		Entries: fp.Entries, MemWords: fp.MemWords,
	}
	if err := f.store.Put(u); err != nil {
		// Roll the placement back; intent stays consistent.
		for _, name := range placed {
			f.revokeUnitOn(ctx, name, names)
		}
		return nil, err
	}
	f.refreshUtil(ctx, placed)
	f.log.Infof("fleet: placed %s on %v (%d entries, %d words, want %d replicas)",
		u.Key, placed, fp.Entries, fp.MemWords, reps)
	return []wire.FleetDeployResult{{
		Unit: u.Key, Programs: names, Members: placed,
		Entries: fp.Entries, MemWords: fp.MemWords,
	}}, nil
}

// deployRanked walks the ranked candidates deploying source until want
// members hold it, skipping members that reject it. Each attempt gets a
// fan-out span under ctx's trace, which the member carries into its own
// controller (one stitched trace across the fleet and its members).
func (f *Fleet) deployRanked(ctx context.Context, source string, programs, ranked []string, want int) []string {
	var placed []string
	for _, name := range ranked {
		if len(placed) >= want {
			break
		}
		m, ok := f.member(name)
		if !ok {
			continue
		}
		msp := trace.StartChild(ctx, "fanout."+name)
		_, err := m.b.Do(trace.ContextWithSpan(ctx, msp), wire.MethodDeploy, wire.DeployParams{Source: source}, nil)
		if err != nil {
			msp.SetTag("err", err.Error())
		}
		msp.End()
		if err != nil {
			f.log.Errorf("fleet: deploy %s on %s: %v", UnitKey(programs), name, err)
			continue
		}
		placed = append(placed, name)
	}
	return placed
}

// revokeUnitOn best-effort removes a unit's programs from one member.
func (f *Fleet) revokeUnitOn(ctx context.Context, name string, programs []string) {
	m, ok := f.member(name)
	if !ok {
		return
	}
	for _, p := range programs {
		if _, err := m.b.Do(ctx, wire.MethodRevoke, wire.RevokeParams{Name: p}, nil); err != nil {
			f.log.Errorf("fleet: revoke %s on %s: %v", p, name, err)
		}
	}
}

// refreshUtil re-probes the named members' utilization so the next
// placement sees post-deploy headroom without waiting for a probe tick.
func (f *Fleet) refreshUtil(ctx context.Context, names []string) {
	for _, n := range names {
		if m, ok := f.member(n); ok {
			if rows, err := wire.Call[[]wire.UtilizationRow](ctx, m.b, wire.MethodUtilization, nil); err == nil {
				f.mu.Lock()
				m.util = rows
				f.mu.Unlock()
			}
		}
	}
}

// Revoke removes the deployment unit containing name (a program name or a
// unit key) from every member holding it and deletes its desired state.
// Member-side failures are tolerated — a down member's copy is cleaned up
// by the reconcile orphan pass when it returns. Under the trace carried by
// ctx, each member holding the unit gets one fan-out span.
func (f *Fleet) Revoke(ctx context.Context, name string) (wire.FleetRevokeResult, error) {
	ctx, sp, owned := f.opSpan(ctx, "fleet.revoke")
	if owned {
		defer sp.End()
	}
	start := time.Now()
	lstart := start
	f.intentMu.Lock()
	sp.ChildAt("lock.wait", lstart, time.Since(lstart))
	defer f.intentMu.Unlock()
	u, ok := f.store.Resolve(name)
	if !ok {
		f.m.cRevokeErr.Inc()
		err := fmt.Errorf("fleet: no unit for %q", name)
		f.flightOp(trace.EvRevoke, name, "", start, err, sp)
		return wire.FleetRevokeResult{}, err
	}
	f.store.Delete(u.Key)
	for _, mn := range u.Members {
		msp := trace.StartChild(ctx, "fanout."+mn)
		f.revokeUnitOn(trace.ContextWithSpan(ctx, msp), mn, u.Programs)
		msp.End()
	}
	f.flightOp(trace.EvRevoke, u.Key, "", start, nil, sp)
	f.refreshUtil(ctx, u.Members)
	f.m.cRevokeOK.Inc()
	f.log.Infof("fleet: revoked %s from %v", u.Key, u.Members)
	return wire.FleetRevokeResult{Unit: u.Key, Programs: u.Programs, Members: u.Members}, nil
}

// Programs fans out to live members and fans in one row per program:
// replica locations, per-replica footprint, and hits summed across
// replicas. A member failing mid-listing is skipped (and noted against
// its health) rather than failing the call.
func (f *Fleet) Programs(ctx context.Context) []wire.FleetProgramInfo {
	type agg struct {
		info    wire.FleetProgramInfo
		members []string
	}
	rows := make(map[string]*agg)
	for _, m := range f.live() {
		infos, err := wire.Call[[]wire.ProgramInfo](ctx, m.b, wire.MethodPrograms, nil)
		if err != nil {
			f.noteFailure(m, err)
			continue
		}
		f.noteSuccess(m, nil)
		f.mu.Lock()
		m.programs = len(infos)
		f.mu.Unlock()
		for _, pi := range infos {
			a, ok := rows[pi.Name]
			if !ok {
				a = &agg{info: wire.FleetProgramInfo{
					Name: pi.Name, Entries: pi.Entries, MemWords: pi.MemWords,
				}}
				rows[pi.Name] = a
			}
			a.info.Hits += pi.Hits
			a.members = append(a.members, m.name)
		}
	}
	out := make([]wire.FleetProgramInfo, 0, len(rows))
	for pname, a := range rows {
		a.info.Replicas = len(a.members)
		a.info.Members = a.members
		if u, ok := f.store.Resolve(pname); ok {
			a.info.Unit = u.Key
			a.info.Desired = u.Replicas
		}
		out = append(out, a.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Top fans out to live members and fans in one windowed-rate row per
// program: pps, hits, and footprint summed across replicas, hit ratio
// recomputed against the fleet-wide injection rate. Members that are Down
// or fail mid-scrape are skipped — the answer degrades to the reachable
// subset instead of failing, which is what keeps `p4rpctl fleet top`
// usable during an outage.
func (f *Fleet) Top(ctx context.Context) wire.TelemetryProgramsResult {
	res := wire.TelemetryProgramsResult{}
	rows := make(map[string]*wire.TelemetryProgramRow)
	var order []string
	for _, m := range f.live() {
		tr, err := wire.Call[wire.TelemetryProgramsResult](ctx, m.b, wire.MethodTelemetryPrograms, nil)
		if err != nil {
			f.noteFailure(m, err)
			continue
		}
		f.noteSuccess(m, nil)
		res.SwitchPPS += tr.SwitchPPS
		res.ForwardedPPS += tr.ForwardedPPS
		res.Sweeps += tr.Sweeps
		if tr.IntervalMs > res.IntervalMs {
			res.IntervalMs = tr.IntervalMs
		}
		for _, r := range tr.Rows {
			a, ok := rows[r.Program]
			if !ok {
				cp := r
				cp.Members = nil
				cp.HitRatio = 0
				cp.RPBEntries = nil
				a = &cp
				rows[r.Program] = a
				order = append(order, r.Program)
			} else {
				a.Hits += r.Hits
				a.PacketHits += r.PacketHits
				a.PPS += r.PPS
				a.MemWords += r.MemWords
				a.MemGrowthWPS += r.MemGrowthWPS
				a.Entries += r.Entries
				// The merged row reflects the least history any replica
				// has: rates older than that are not comparable.
				if r.Samples < a.Samples {
					a.Samples = r.Samples
				}
				if r.WindowMs < a.WindowMs {
					a.WindowMs = r.WindowMs
				}
			}
			a.Members = append(a.Members, m.name)
		}
	}
	res.Rows = make([]wire.TelemetryProgramRow, 0, len(rows))
	for _, pname := range order {
		r := rows[pname]
		if res.SwitchPPS > 0 {
			r.HitRatio = r.PPS / res.SwitchPPS
		}
		res.Rows = append(res.Rows, *r)
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		if res.Rows[i].PPS != res.Rows[j].PPS {
			return res.Rows[i].PPS > res.Rows[j].PPS
		}
		return res.Rows[i].Program < res.Rows[j].Program
	})
	return res
}

// Utilization fans out per-member, per-RPB usage from live members.
func (f *Fleet) Utilization(ctx context.Context) []wire.FleetUtilRow {
	live := f.live()
	out := make([]wire.FleetUtilRow, 0, len(live))
	for _, m := range live {
		rows, err := wire.Call[[]wire.UtilizationRow](ctx, m.b, wire.MethodUtilization, nil)
		if err != nil {
			f.noteFailure(m, err)
			continue
		}
		f.noteSuccess(m, rows)
		out = append(out, wire.FleetUtilRow{Member: m.name, Rows: rows})
	}
	return out
}

// MemRead reads a program's virtual memory range on every live replica
// and aggregates per bucket: FleetAggSum (default — counters and
// sketches merge by addition), FleetAggMax, or FleetAggFirst (first
// replica to answer). Individual replica failures are skipped; the call
// fails only when no replica answers.
func (f *Fleet) MemRead(ctx context.Context, program, mem string, addr, count uint32, agg string) (wire.FleetMemReadResult, error) {
	if agg == "" {
		agg = wire.FleetAggSum
	}
	switch agg {
	case wire.FleetAggSum, wire.FleetAggMax, wire.FleetAggFirst:
	default:
		return wire.FleetMemReadResult{}, fmt.Errorf("fleet: unknown aggregation %q", agg)
	}
	u, ok := f.store.Resolve(program)
	if !ok {
		return wire.FleetMemReadResult{}, fmt.Errorf("fleet: no unit for %q", program)
	}
	if count == 0 {
		count = 1
	}
	res := wire.FleetMemReadResult{Agg: agg}
	var firstErr error
	for _, m := range f.liveMembers(u.Members) {
		vals, err := wire.Call[[]uint32](ctx, m.b, wire.MethodMemRead,
			wire.MemReadParams{Program: program, Mem: mem, Addr: addr, Count: count})
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("fleet: read %s/%s on %s: %w", program, mem, m.name, err)
			}
			f.noteFailure(m, err)
			continue
		}
		f.noteSuccess(m, nil)
		res.Replicas++
		if res.Values == nil {
			res.Values = append([]uint32(nil), vals...)
			if agg == wire.FleetAggFirst {
				return res, nil
			}
			continue
		}
		for i := range res.Values {
			if i >= len(vals) {
				break
			}
			switch agg {
			case wire.FleetAggSum:
				res.Values[i] += vals[i]
			case wire.FleetAggMax:
				if vals[i] > res.Values[i] {
					res.Values[i] = vals[i]
				}
			}
		}
	}
	if res.Replicas == 0 {
		if firstErr != nil {
			return res, firstErr
		}
		return res, fmt.Errorf("fleet: no live replica for %q", program)
	}
	return res, nil
}

// MemWrite writes one bucket on every live replica. It succeeds when at
// least one replica accepts the write (replicas hold independent state;
// a replica that missed the write and later diverges is re-deployed, not
// repaired, by reconciliation).
func (f *Fleet) MemWrite(ctx context.Context, program, mem string, addr, value uint32) error {
	return f.writeReplicas(program, mem, "write", func(m Member) error {
		_, err := m.Do(ctx, wire.MethodMemWrite, wire.MemWriteParams{Program: program, Mem: mem, Addr: addr, Value: value}, nil)
		return err
	})
}

// MemWriteBatch writes many buckets of one program memory on every live
// replica — one batched mem.writebatch call per replica, its pairs in one
// binary frame. Like MemWrite it succeeds when at least one replica
// accepts the whole batch.
func (f *Fleet) MemWriteBatch(ctx context.Context, program, mem string, writes []wire.MemWriteEntry) error {
	if len(writes) == 0 {
		return nil
	}
	pairs := wire.EncodeWritePairs(writes)
	return f.writeReplicas(program, mem, "batch write", func(m Member) error {
		var out wire.MemWriteBatchResult
		_, err := m.Do(ctx, wire.MethodMemWriteBatch,
			wire.MemWriteBatchParams{Program: program, Mem: mem, Binary: true}, &out, pairs)
		if err == nil && out.Written != len(writes) {
			err = fmt.Errorf("wrote %d of %d buckets", out.Written, len(writes))
		}
		return err
	})
}

// writeReplicas runs one memory write against every live replica of
// program's unit, charging failures to the member that failed; the first
// failure is reported only when no replica accepted the write.
func (f *Fleet) writeReplicas(program, mem, what string, write func(Member) error) error {
	u, ok := f.store.Resolve(program)
	if !ok {
		return fmt.Errorf("fleet: no unit for %q", program)
	}
	var wrote int
	var firstErr error
	for _, m := range f.liveMembers(u.Members) {
		if err := write(m.b); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("fleet: %s %s/%s on %s: %w", what, program, mem, m.name, err)
			}
			f.noteFailure(m, err)
			continue
		}
		f.noteSuccess(m, nil)
		wrote++
	}
	if wrote == 0 {
		if firstErr != nil {
			return firstErr
		}
		return fmt.Errorf("fleet: no live replica for %q", program)
	}
	return nil
}

// String renders a one-line fleet summary.
func (f *Fleet) String() string {
	var h, s, d int
	f.mu.Lock()
	for _, m := range f.members {
		switch m.state {
		case Healthy:
			h++
		case Suspect:
			s++
		case Down:
			d++
		}
	}
	f.mu.Unlock()
	return fmt.Sprintf("fleet: %d members (%d healthy, %d suspect, %d down), %d units",
		h+s+d, h, s, d, len(f.store.List()))
}
