// Package fleet is P4runpro's scale-out control plane: one API over N
// member switches. The paper's controller (§5) drives a single Tofino
// through one bfrt_grpc session; a production deployment runs many
// switches, and runtime programmability then becomes a placement problem
// (which member can link a program against its live per-RPB resources),
// a health problem (members stall, daemons die), and a consistency problem
// (deployed state must keep matching controller intent — the runtime-
// verification concern fleet-wide).
//
// The Fleet holds a desired-state store of deployment units, ranks
// members by assigned units and utilization headroom, and places a unit
// on the first ranked members whose own deploy.plan says it links there —
// allocation stays the member's decision, as in the paper (§4.3). It
// probes member health with timeouts and backoff (healthy → suspect →
// down), and runs a reconcile loop that re-deploys a down member's units
// to survivors and reverses divergence between desired and actual state.
// Reads (programs, utilization, memory) fan out to live members and fan
// in aggregated, so single-member failures never fail a fleet API call
// while a replica survives.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sort"
	"sync"
	"time"

	"p4runpro/internal/lang"
	"p4runpro/internal/obs"
	"p4runpro/internal/obs/trace"
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

// Options tunes a Fleet. The zero value is usable: single replica, 1s
// probes with 5s timeout, down after 3 consecutive failures, 2s reconcile
// cadence.
type Options struct {
	// Replicas is how many members hold each unit when a deploy asks for
	// no count of its own. Default 1.
	Replicas int
	// ProbeInterval is the health-check cadence for healthy members;
	// failing members are re-probed on an exponential backoff from half
	// this interval up to eight times it.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// DownAfter is the consecutive-failure threshold for marking a member
	// down (below it the member is suspect).
	DownAfter int
	// ReconcileInterval is the desired-vs-actual diff cadence; a member
	// going down also kicks an immediate pass.
	ReconcileInterval time.Duration
	// Logger receives fleet events; nil is silent (still counted).
	Logger *log.Logger
}

func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = 1
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = 5 * time.Second
	}
	if o.DownAfter <= 0 {
		o.DownAfter = 3
	}
	if o.ReconcileInterval <= 0 {
		o.ReconcileInterval = 2 * time.Second
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
	// so the store and members never see interleaved placements.
	intentMu sync.Mutex

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

// liveViews snapshots placement candidates: the healthy members.
func (f *Fleet) liveViews() []MemberView {
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
		if m.state != Healthy {
			continue
		}
		mem, ent := usedFracs(m.util)
		out = append(out, MemberView{Name: name, Headroom: 1 - (mem+ent)/2, Units: unitCount[name]})
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

// Deploy places source on the fleet: rank healthy members (see rank), ask
// them in that order for a plan of source against their live state, and
// deploy to the first k that can link it (k = reps, or Options.Replicas
// when 0). A member that still refuses the deploy gives its slot
// to the next ranked member. The unit is recorded in the desired-state
// store with the first plan's entries and memory words. Partial placement
// (fewer than k but at least one replica) succeeds; the reconcile loop
// tops it up as capacity appears.
//
// Under the trace carried by ctx, lock wait, each member's plan and each
// member's deploy become attributed child spans (plan.<member> and
// fanout.<member>), and the placement lands in the flight recorder.
func (f *Fleet) Deploy(ctx context.Context, source string, reps int) (res []wire.FleetDeployResult, err error) {
	ctx, sp, owned := trace.OpSpan(ctx, f.tracer, "fleet.", "deploy")
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
		f.flight.RecordOp(trace.EvDeploy, unit, "placement", start, err, sp)
	}()
	names, err := programNames(source)
	if err != nil {
		return nil, err
	}
	lstart := time.Now()
	f.intentMu.Lock()
	sp.ChildAt("lock.wait", lstart, time.Since(lstart))
	defer f.intentMu.Unlock()

	for _, n := range names {
		if k, ok := f.store.OwnerOf(n); ok {
			return nil, fmt.Errorf("fleet: program %q already deployed in unit %q", n, k)
		}
	}
	if reps <= 0 {
		reps = f.opt.Replicas
	}
	key := UnitKey(names)
	ranked := rank(f.liveViews())
	placed, plan, refusal := f.place(ctx, source, ranked, nil, reps, func(m *member) error {
		err := spanned(ctx, "fanout", m, wire.MethodDeploy, wire.DeployParams{Source: source}, nil)
		if err != nil {
			f.log.Errorf("fleet: deploy %s on %s: %v", key, m.name, err)
		}
		return err
	})
	if len(placed) == 0 {
		return nil, fmt.Errorf("fleet: no member can place %q: %v", key, refusal)
	}
	u := &Unit{
		Key: key, Source: source, Programs: names,
		Replicas: reps, Members: placed,
	}
	for _, p := range plan {
		u.Entries += p.Entries
		u.MemWords += p.MemWords
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
		u.Key, placed, u.Entries, u.MemWords, reps)
	return []wire.FleetDeployResult{{
		Unit: u.Key, Programs: names, Members: placed,
		Entries: u.Entries, MemWords: u.MemWords,
	}}, nil
}

// programNames parses and checks source for the names of its programs,
// the unit's identity; a source the language rejects fails here, before
// any member is asked.
func programNames(source string) ([]string, error) {
	file, err := lang.ParseFile(source)
	if err == nil {
		err = lang.Check(file)
	}
	if err != nil {
		return nil, err
	}
	if len(file.Programs) == 0 {
		return nil, fmt.Errorf("fleet: source links no programs")
	}
	names := make([]string, len(file.Programs))
	for i, p := range file.Programs {
		names[i] = p.Name
	}
	return names, nil
}

// place walks ranked, the healthy members in rank order, skipping those
// in skip, and asks each for a deploy.plan of source (one plan.<member>
// span under ctx) until want of them have accepted it — and, when take is
// given, have been taken by it too, so a member that refuses the deploy
// after its plan gives its slot to the next one. It returns those members,
// the first accepted plan, and, when it found fewer than want, why.
func (f *Fleet) place(ctx context.Context, source string, ranked []string, skip map[string]bool, want int, take func(*member) error) (fits []string, plan []wire.PlanResult, refusal error) {
	for _, name := range ranked {
		if len(fits) == want {
			break
		}
		m, ok := f.member(name)
		if !ok || skip[name] {
			continue
		}
		var out any // only the first accepted plan is read
		if plan == nil {
			out = &plan
		}
		err := spanned(ctx, "plan", m, wire.MethodDeployPlan, wire.DeployParams{Source: source}, out)
		if err == nil && take != nil {
			err = take(m)
		}
		if err != nil {
			if refusal == nil {
				refusal = fmt.Errorf("%s: %w", name, err)
			}
			continue
		}
		fits = append(fits, name)
	}
	if len(fits) < want && refusal == nil {
		refusal = errors.New("no more healthy members to ask")
	}
	return fits, plan, refusal
}

// spanned makes one call to m under a child span of ctx named
// <prefix>.<member>, which the member carries into its own controller (one
// stitched trace across the fleet and its members).
func spanned(ctx context.Context, prefix string, m *member, method string, params, out any) error {
	sp := trace.StartChild(ctx, prefix+"."+m.name)
	_, err := m.b.Do(trace.ContextWithSpan(ctx, sp), method, params, out)
	if err != nil {
		sp.SetTag("err", err.Error())
	}
	sp.End()
	return err
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
	ctx, sp, owned := trace.OpSpan(ctx, f.tracer, "fleet.", "revoke")
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
		f.flight.RecordOp(trace.EvRevoke, name, "", start, err, sp)
		return wire.FleetRevokeResult{}, err
	}
	f.store.Delete(u.Key)
	for _, mn := range u.Members {
		msp := trace.StartChild(ctx, "fanout."+mn)
		f.revokeUnitOn(trace.ContextWithSpan(ctx, msp), mn, u.Programs)
		msp.End()
	}
	f.flight.RecordOp(trace.EvRevoke, u.Key, "", start, nil, sp)
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
