package rmt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"p4runpro/internal/hashing"
	"p4runpro/internal/pkt"
)

// Verdict is the final disposition of an injected packet.
type Verdict int

// Verdicts.
const (
	VerdictForwarded Verdict = iota
	VerdictDropped
	VerdictReflected // RETURN: sent back out the ingress port
	VerdictToCPU     // REPORT
	VerdictNoDecision
	VerdictRecircOverflow
	VerdictMulticast // MULTICAST: replicated to a group's ports
	VerdictNextHop   // chain mode: handed to the next switch in the chain
)

func (v Verdict) String() string {
	switch v {
	case VerdictForwarded:
		return "forwarded"
	case VerdictDropped:
		return "dropped"
	case VerdictReflected:
		return "reflected"
	case VerdictToCPU:
		return "to-cpu"
	case VerdictNoDecision:
		return "no-decision"
	case VerdictRecircOverflow:
		return "recirc-overflow"
	case VerdictMulticast:
		return "multicast"
	case VerdictNextHop:
		return "next-hop"
	}
	return fmt.Sprintf("verdict(%d)", int(v))
}

// Result reports what happened to one injected packet.
type Result struct {
	Verdict Verdict
	OutPort int
	// OutPorts lists multicast replication targets. It references the
	// switch's immutable group snapshot — callers may read and retain it
	// but must not mutate it.
	OutPorts []int
	Packet   *pkt.Packet
	Passes   int // pipeline passes consumed (1 = no recirculation)
}

// PortCounters accumulates per-port transmit statistics.
type PortCounters struct {
	TxPackets uint64
	TxBytes   uint64
}

// switchMetrics is the always-on packet-path instrumentation: atomic
// counters that a burst adds to once, when InjectBatch returns, from the
// tally it kept in its own PHV (no locks, no allocation, no shared cache line
// written per packet). Stage lookups are not counted at all: they are derived
// from the pass counter and the published plan (see planSnapshot).
type switchMetrics struct {
	packets  atomic.Uint64 // injected packets
	passes   atomic.Uint64 // pipeline passes consumed (>= packets)
	recircs  atomic.Uint64 // internal recirculations through the loopback port
	saluOps  atomic.Uint64 // stateful-ALU memory accesses on the packet path
	verdicts [VerdictNextHop + 1]atomic.Uint64
}

// MetricsSnapshot is a point-in-time copy of the switch's packet-path
// instrumentation, consumed by the control plane's metrics registry.
type MetricsSnapshot struct {
	Packets  uint64
	Passes   uint64
	Recircs  uint64
	SALUOps  uint64
	Verdicts [VerdictNextHop + 1]uint64
	// StageLookups counts match-action lookups per stage, ingress stages
	// first, then egress.
	StageLookups []uint64
}

// Metrics snapshots the packet-path counters. They include every burst that
// has returned; a burst still in flight is not counted yet.
func (s *Switch) Metrics() MetricsSnapshot {
	pl := s.plan.Load() // before the pass counter: see planSnapshot.lookups
	m := MetricsSnapshot{
		Packets: s.met.packets.Load(),
		Passes:  s.met.passes.Load(),
		Recircs: s.met.recircs.Load(),
		SALUOps: s.met.saluOps.Load(),
	}
	for i := range s.met.verdicts {
		m.Verdicts[i] = s.met.verdicts[i].Load()
	}
	m.StageLookups = make([]uint64, len(pl.base))
	for i := range m.StageLookups {
		m.StageLookups[i] = pl.lookups(i, m.Passes)
	}
	return m
}

// StageLookupCount returns the lookup counter of one flat stage index
// (ingress stages first, then egress) without snapshotting the whole
// metrics set — the cheap per-series accessor for scrape-time collectors.
func (s *Switch) StageLookupCount(flat int) uint64 {
	pl := s.plan.Load()
	if flat < 0 || flat >= len(pl.base) {
		return 0
	}
	return pl.lookups(flat, s.met.passes.Load())
}

// portCounter is one port's packet and byte statistics. Bursts add to it
// once per run of packets on the port (see portRun), atomically, so
// concurrent injection never tears or drops a count.
type portCounter struct {
	pkts  atomic.Uint64
	bytes atomic.Uint64
}

func (c *portCounter) snapshot() PortCounters {
	return PortCounters{TxPackets: c.pkts.Load(), TxBytes: c.bytes.Load()}
}

// burstTally is what one InjectBatch burst counts on the packet path, kept in
// plain words in the burst's PHV. Nothing shared is written per packet:
// Switch.flush adds the tally to the switch's atomics when the burst returns,
// so every reader is exact once the bursts it cares about have returned.
type burstTally struct {
	hits                 []hitRun // one run per table, indexed by plan position
	tx                   portRun
	saluOps              uint64
	recircs, recircBytes uint64 // the loopback port's traffic
}

// hitRuns returns the tally's first n hit runs, growing the slice (pending
// runs kept) when the plan has outgrown it.
func (t *burstTally) hitRuns(n int) []hitRun {
	if len(t.hits) < n {
		grown := make([]hitRun, n)
		copy(grown, t.hits)
		t.hits = grown
	}
	return t.hits[:n]
}

// hitRun counts consecutive hits on one entry of one table. A hit on another
// entry adds the run to the entry's counter and starts a new run, so a burst
// whose packets share a program costs one add per table, not one per packet.
type hitRun struct {
	e *Entry
	n uint64
}

func (r *hitRun) add(e *Entry) {
	if r.e != e {
		r.flush()
		r.e = e
	}
	r.n++
}

// flush adds the run to its entry and forgets the entry, so a pooled PHV
// never keeps a retired table reachable.
func (r *hitRun) flush() {
	if r.n > 0 {
		atomic.AddUint64(&r.e.hits, r.n)
	}
	r.e, r.n = nil, 0
}

// portRun counts consecutive packets on one port of cs; a packet on another
// port adds the run to the port's counter and starts a new run.
type portRun struct {
	port        int
	pkts, bytes uint64
}

func (r *portRun) add(cs []portCounter, port, wireLen int) {
	if port < 0 || port >= len(cs) {
		return
	}
	if port != r.port {
		r.flush(cs)
		r.port = port
	}
	r.pkts++
	r.bytes += uint64(wireLen)
}

func (r *portRun) flush(cs []portCounter) {
	if r.pkts > 0 {
		cs[r.port].pkts.Add(r.pkts)
		cs[r.port].bytes.Add(r.bytes)
		r.pkts, r.bytes = 0, 0
	}
}

// Switch is a provisioned RMT ASIC: fixed stages, tables, register arrays,
// and hash units. Runtime reconfiguration is restricted to table entries and
// register values, exactly as on real RMT hardware.
//
// The packet path (InjectBatch and everything under it) is safe for concurrent
// use and lock-free: stage plans and table match state are immutable
// snapshots behind atomic pointers, register arrays linearize per word, and
// PHVs are recycled from a pool — modeling a Tofino's independent
// packet-processing engines, which forward at line rate while the control
// plane updates entries underneath them (paper §5). Counters are tallied per
// burst in the burst's own PHV and added to the switch's atomics once, when
// InjectBatch returns (see burstTally).
type Switch struct {
	cfg    Config
	layout *PHVLayout

	mu      sync.RWMutex
	tables  map[string]*Table
	byStage map[stageKey][]*Table // application order within a stage
	// plan is the published stage plan, rebuilt copy-on-write under mu by
	// AddTable and read lock-free once per pipeline pass.
	plan atomic.Pointer[planSnapshot]

	arrays map[stageKey]*RegisterArray
	hash   map[stageKey][]*hashing.Unit

	onRecirc func(*PHV)
	onParse  func(*PHV)
	onEmit   func(*PHV)

	// mcast is the published multicast-group snapshot (group -> egress
	// ports), immutable once stored: writers rebuild the whole map under
	// mcastMu and swap the pointer, so the packet path resolves replication
	// lists with one atomic load and zero allocation (same pattern as the
	// table match-state snapshots).
	mcastMu sync.Mutex
	mcast   atomic.Pointer[map[int][]int]

	ports   []portCounter
	cpu     []*pkt.Packet
	cpuMu   sync.Mutex
	cpuKeep int

	recircPackets atomic.Uint64
	recircBytes   atomic.Uint64

	// phvPool and post.pool are separate objects, not fields: the runtime
	// keeps every pool in use reachable until a GC cycle after its last use,
	// and an embedded pool would keep the whole retired switch (register
	// arrays and tables) alive with it.
	phvPool *sync.Pool

	met switchMetrics

	// post holds the packet-postcard sampling state (see postcard.go):
	// disabled by default, one atomic load per packet when off.
	post postcardState

	// queueDepth is the traffic manager's simulated queue occupancy,
	// surfaced to programs as the meta.qdepth intrinsic.
	queueDepth atomic.Uint32
}

type stageKey struct {
	g     Gress
	stage int
}

// New provisions a switch with the given configuration. The PHV layout is
// created empty; the data-plane program defines its scratch fields before
// installing tables.
func New(cfg Config) *Switch {
	s := &Switch{
		cfg:     cfg,
		layout:  NewPHVLayout(cfg.PHVBits),
		tables:  make(map[string]*Table),
		byStage: make(map[stageKey][]*Table),
		arrays:  make(map[stageKey]*RegisterArray),
		hash:    make(map[stageKey][]*hashing.Unit),
		ports:   make([]portCounter, cfg.Ports+8),
		cpuKeep: 1 << 16,
	}
	s.phvPool = &sync.Pool{New: func() any { return &PHV{} }}
	s.post.pool = new(sync.Pool)
	s.publishPlanLocked()
	for g := Ingress; g <= Egress; g++ {
		for st := 0; st < cfg.StageCount(g); st++ {
			k := stageKey{g, st}
			s.arrays[k] = NewRegisterArray(g, st, cfg.MemoryWords)
			units := make([]*hashing.Unit, 0, cfg.HashUnits)
			for u := 0; u < cfg.HashUnits; u++ {
				if u == 0 {
					units = append(units, hashing.NewUnit16(u, stageHashParams(st+int(g)*cfg.IngressStages, u)))
				} else {
					units = append(units, hashing.NewUnit32(u))
				}
			}
			s.hash[k] = units
		}
	}
	return s
}

// Config returns the hardware configuration.
func (s *Switch) Config() Config { return s.cfg }

// PHVLayout returns the switch's PHV layout for field definition at
// provisioning time.
func (s *Switch) PHVLayout() *PHVLayout { return s.layout }

// SetRecircHook installs a callback run when a packet re-enters the
// pipeline after recirculation, standing in for the shim-header re-parse.
func (s *Switch) SetRecircHook(fn func(*PHV)) { s.onRecirc = fn }

// SetParseHook installs a callback run when a PHV is first built for an
// injected packet — the data plane uses it to restore execution context
// from a recirculation shim arriving from an upstream chain switch.
func (s *Switch) SetParseHook(fn func(*PHV)) { s.onParse = fn }

// SetEmitHook installs a callback run when, in chain mode
// (Config.EmitOnRecirc), a recirculation-flagged packet is about to leave
// for the next switch — the data plane serializes the execution context
// into the shim there.
func (s *Switch) SetEmitHook(fn func(*PHV)) { s.onEmit = fn }

// SetMulticastGroup configures the traffic manager's replication list for a
// group ID (control-plane raw API). An empty port list deletes the group.
// The update is copy-on-write: in-flight packets keep resolving against the
// snapshot they loaded, exactly like concurrent table-entry updates.
func (s *Switch) SetMulticastGroup(group int, ports []int) {
	s.mcastMu.Lock()
	defer s.mcastMu.Unlock()
	var cur map[int][]int
	if p := s.mcast.Load(); p != nil {
		cur = *p
	}
	next := make(map[int][]int, len(cur)+1)
	for g, ps := range cur {
		next[g] = ps
	}
	if len(ports) == 0 {
		delete(next, group)
	} else {
		next[group] = append([]int(nil), ports...)
	}
	s.mcast.Store(&next)
}

// MulticastGroup returns a copy of a group's replication list.
func (s *Switch) MulticastGroup(group int) []int {
	return append([]int(nil), s.mcastPorts(group)...)
}

// mcastPorts resolves a group's replication list lock-free against the
// published snapshot. The returned slice is shared and immutable — the
// packet path (and Result.OutPorts) may reference it but must never mutate
// it.
func (s *Switch) mcastPorts(group int) []int {
	p := s.mcast.Load()
	if p == nil {
		return nil
	}
	return (*p)[group]
}

// AddTable creates and binds a table to a stage. Tables within a stage are
// applied in creation order.
func (s *Switch) AddTable(name string, g Gress, stage, capacity, nkeys int, keyFunc func(*PHV) []uint32) (*Table, error) {
	if stage < 0 || stage >= s.cfg.StageCount(g) {
		return nil, fmt.Errorf("rmt: %s stage %d out of range", g, stage)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tables[name]; dup {
		return nil, fmt.Errorf("rmt: table %q already exists", name)
	}
	t := NewTable(name, g, stage, capacity, nkeys, keyFunc)
	s.tables[name] = t
	k := stageKey{g, stage}
	s.byStage[k] = append(s.byStage[k], t)
	s.publishPlanLocked()
	return t, nil
}

// flatStage maps (gress, stage) to the flat stage index used by the plan
// snapshot and the per-stage metrics (ingress stages first, then egress).
func (s *Switch) flatStage(g Gress, stage int) int {
	if g == Egress {
		return stage + s.cfg.IngressStages
	}
	return stage
}

// planSnapshot is the published stage plan: every table in application order
// (ingress stages first, then egress), which is also the order of a burst's
// hit runs. A pass applies every table once, so a stage's lookup counter is
// derived rather than counted: the lookups before this plan was published
// (base) plus the stage's table count for every pass since (passes0).
type planSnapshot struct {
	tables   []*Table
	perStage []int    // tables per flat stage
	base     []uint64 // lookups per flat stage at publication
	passes0  uint64   // the pass counter at publication
}

// lookups derives flat stage i's lookup counter from the pass counter. A
// reader loads the plan before the pass counter, so passes >= passes0.
func (pl *planSnapshot) lookups(i int, passes uint64) uint64 {
	return pl.base[i] + (passes-pl.passes0)*uint64(pl.perStage[i])
}

// publishPlanLocked rebuilds the plan snapshot from byStage and publishes it
// atomically, carrying the lookup counters over. Passes of a burst in flight
// across the publication are counted under the new plan, so the counters are
// exact when tables are added while no traffic flows. Caller holds s.mu.
func (s *Switch) publishPlanLocked() {
	n := s.cfg.IngressStages + s.cfg.EgressStages
	next := &planSnapshot{perStage: make([]int, n), base: make([]uint64, n), passes0: s.met.passes.Load()}
	if old := s.plan.Load(); old != nil {
		for i := range next.base {
			next.base[i] = old.lookups(i, next.passes0)
		}
	}
	for g := Ingress; g <= Egress; g++ {
		for st := 0; st < s.cfg.StageCount(g); st++ {
			ts := s.byStage[stageKey{g, st}]
			next.tables = append(next.tables, ts...)
			next.perStage[s.flatStage(g, st)] = len(ts)
		}
	}
	s.plan.Store(next)
}

// Tables returns all tables (for accounting).
func (s *Switch) Tables() []*Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Table, 0, len(s.tables))
	for _, t := range s.tables {
		out = append(out, t)
	}
	return out
}

// Array returns the register array of a stage.
func (s *Switch) Array(g Gress, stage int) (*RegisterArray, error) {
	a, ok := s.arrays[stageKey{g, stage}]
	if !ok {
		return nil, fmt.Errorf("rmt: no register array at %s stage %d", g, stage)
	}
	return a, nil
}

// HashUnit returns hash unit idx of a stage.
func (s *Switch) HashUnit(g Gress, stage, idx int) (*hashing.Unit, error) {
	units, ok := s.hash[stageKey{g, stage}]
	if !ok || idx < 0 || idx >= len(units) {
		return nil, fmt.Errorf("rmt: no hash unit %d at %s stage %d", idx, g, stage)
	}
	return units[idx], nil
}

// AccessMemory performs this packet's single allowed stateful access in the
// current stage. Actions must call it (rather than touching arrays directly)
// so the one-access-per-stage hardware rule is enforced. The access is
// tallied in p's burst and reaches the SALU-ops counter when the burst
// returns.
func (s *Switch) AccessMemory(p *PHV, op SALUOp, addr, operand uint32) (uint32, error) {
	g, st := p.CurrentStage()
	if p.touchMem(s.flatStage(g, st)) {
		return 0, fmt.Errorf("rmt: second stateful access in %s stage %d (hardware allows one per packet per stage)", g, st)
	}
	p.tally.saluOps++
	return s.arrays[stageKey{g, st}].Execute(op, addr, operand)
}

// Inject runs one parsed packet through the switch: a one-item InjectBatch
// burst, so it shares every semantic of the burst path.
func (s *Switch) Inject(p *pkt.Packet, inPort int) Result {
	items := [1]BatchItem{{Pkt: p, Port: inPort}}
	s.InjectBatch(items[:])
	return items[0].Res
}

// run drives one recycled PHV through the pipeline passes and the traffic
// manager's final verdict.
func (s *Switch) run(phv *PHV, p *pkt.Packet, inPort int) Result {
	phv.Meta.QueueDepth = s.queueDepth.Load()
	if s.onParse != nil {
		s.onParse(phv)
	}
	passes := 0
	for {
		passes++
		s.pass(phv)
		if !phv.Meta.Recirc {
			break
		}
		if s.cfg.EmitOnRecirc {
			// Chain mode: hand the packet, shim attached, to the next
			// switch on the path instead of looping internally.
			if s.onEmit != nil {
				s.onEmit(phv)
			}
			return Result{Verdict: VerdictNextHop, OutPort: s.cfg.RecircPort, Packet: p, Passes: passes}
		}
		// Traffic manager: recirculate through the loopback port for
		// another pipeline pass, unless the budget is exhausted.
		if passes > s.cfg.MaxRecirc {
			return Result{Verdict: VerdictRecircOverflow, OutPort: -1, Packet: p, Passes: passes}
		}
		phv.tally.recircs++
		phv.tally.recircBytes += uint64(p.WireLen)
		if phv.trace != nil {
			phv.trace.recircs++
		}
		phv.ResetPass()
		if s.onRecirc != nil {
			// Model the recirculation shim re-parse: the data plane
			// updates per-pass PHV state (e.g. the recirculation ID) as
			// the packet re-enters the parser.
			s.onRecirc(phv)
		}
	}
	switch {
	case phv.Meta.Drop:
		return Result{Verdict: VerdictDropped, OutPort: -1, Packet: p, Passes: passes}
	case phv.Meta.ToCPU:
		s.cpuMu.Lock()
		if len(s.cpu) < s.cpuKeep {
			s.cpu = append(s.cpu, p)
		}
		s.cpuMu.Unlock()
		return Result{Verdict: VerdictToCPU, OutPort: -1, Packet: p, Passes: passes}
	case phv.Meta.McastGroup != 0:
		ports := s.mcastPorts(phv.Meta.McastGroup)
		for _, port := range ports {
			phv.tally.tx.add(s.ports, port, p.WireLen)
		}
		return Result{Verdict: VerdictMulticast, OutPort: -1, OutPorts: ports, Packet: p, Passes: passes}
	case phv.Meta.Reflect:
		phv.tally.tx.add(s.ports, inPort, p.WireLen)
		return Result{Verdict: VerdictReflected, OutPort: inPort, Packet: p, Passes: passes}
	case phv.Meta.EgressSpec >= 0:
		phv.tally.tx.add(s.ports, phv.Meta.EgressSpec, p.WireLen)
		return Result{Verdict: VerdictForwarded, OutPort: phv.Meta.EgressSpec, Packet: p, Passes: passes}
	}
	return Result{Verdict: VerdictNoDecision, OutPort: -1, Packet: p, Passes: passes}
}

// BatchItem is one packet of an InjectBatch burst: the packet, its ingress
// port and fabric context in, and the Result (plus, for path-traced packets,
// the Postcard) InjectBatch fills in place.
type BatchItem struct {
	Pkt  *pkt.Packet
	Port int
	// TTL is the fabric hop budget stamped into the packet's intrinsic
	// metadata (meta.ttl); zero outside a fabric.
	TTL uint32
	// PathID is the fabric-assigned stitched path-trace ID (IDs start at 1).
	// A non-zero PathID forces a postcard for this packet, bypassing the
	// switch's own 1-in-N sampler, so a stitched trace has no holes.
	PathID uint64
	Res    Result
	// Postcard is the forced postcard of a path-traced item, nil otherwise.
	Postcard *Postcard
}

// InjectBatch is the only way a packet enters the pipeline: it runs a burst
// of packets through the switch in order, filling each item's Res in place.
// Each parsed packet is walked through the ingress and egress stages
// (honoring recirculation) and given its final disposition by the traffic
// manager after the final pass, so deferred verdicts (e.g. DROP followed by
// MEMWRITE in the paper's cache program) behave as on hardware, where drops
// are finalized at deparsing. One PHV is checked out of the pool for the
// whole burst, and every counter the burst moves is tallied in it and
// flushed once, when the burst returns: readers (Metrics, PortStats,
// Entry.Hits, Table.Hits) include a burst once InjectBatch has returned.
//
// InjectBatch is safe for concurrent use: each call owns its PHV, and
// independent goroutines model the chip's parallel packet-processing
// engines. A single burst is processed sequentially, so callers that need
// per-flow ordering keep a flow's packets in one burst or one goroutine —
// traffic.ReplayParallel's 5-tuple sharding does exactly that.
func (s *Switch) InjectBatch(items []BatchItem) {
	if len(items) == 0 {
		return
	}
	phv := s.phvPool.Get().(*PHV)
	var passes uint64
	var verdicts [VerdictNextHop + 1]uint64
	for i := range items {
		it := &items[i]
		tr := s.tracePacket(it.PathID)
		phv.reset(s.layout, it.Pkt, it.Port)
		phv.Meta.TTL = it.TTL
		phv.trace = tr
		it.Res = s.run(phv, it.Pkt, it.Port)
		phv.trace = nil
		passes += uint64(it.Res.Passes)
		verdicts[it.Res.Verdict]++
		it.Postcard = nil
		if tr != nil {
			pc := s.recordPostcard(tr, it)
			if it.PathID != 0 {
				it.Postcard = pc
			}
		}
	}
	s.flush(&phv.tally)
	s.phvPool.Put(phv)
	s.met.packets.Add(uint64(len(items)))
	s.met.passes.Add(passes)
	for v := range verdicts {
		if verdicts[v] > 0 {
			s.met.verdicts[v].Add(verdicts[v])
		}
	}
}

// flush adds a finished burst's tally to the switch's counters and clears it.
// It runs before the burst's packets, passes and verdicts are counted, so a
// reader that sees a burst's packets sees its entry hits too.
func (s *Switch) flush(t *burstTally) {
	for i := range t.hits {
		t.hits[i].flush()
	}
	t.tx.flush(s.ports)
	if t.saluOps > 0 {
		s.met.saluOps.Add(t.saluOps)
		t.saluOps = 0
	}
	if t.recircs > 0 {
		s.met.recircs.Add(t.recircs)
		s.recircPackets.Add(t.recircs)
		s.recircBytes.Add(t.recircBytes)
		t.recircs, t.recircBytes = 0, 0
	}
}

// pass runs one pipeline pass: every table of the published plan once, in
// application order, each hit tallied in the run for the table's plan
// position.
func (s *Switch) pass(phv *PHV) {
	tables := s.plan.Load().tables
	runs := phv.tally.hitRuns(len(tables))
	for i, t := range tables {
		phv.gress, phv.stage = t.Gress, t.Stage
		if e, _ := t.apply(phv); e != nil {
			runs[i].add(e)
		}
	}
}

// PlanStats and CompiledPlan are shims for the frozen bench/ module, which
// asks before each burst whether a compiled plan is published. The plan
// layer is gone — every table snapshot is the lowered form — so the answer
// is always yes. The next benchmark PR deletes both.
type PlanStats struct{}

func (s *Switch) CompiledPlan() (PlanStats, bool) { return PlanStats{}, true }

// PortStats returns the transmit counters of a port.
func (s *Switch) PortStats(port int) PortCounters {
	if port < 0 || port >= len(s.ports) {
		return PortCounters{}
	}
	return s.ports[port].snapshot()
}

// RecircStats returns cumulative recirculated packets and bytes.
func (s *Switch) RecircStats() (packets, bytes uint64) {
	return s.recircPackets.Load(), s.recircBytes.Load()
}

// DrainCPU returns and clears the packets reported to the CPU.
func (s *Switch) DrainCPU() []*pkt.Packet {
	s.cpuMu.Lock()
	defer s.cpuMu.Unlock()
	out := s.cpu
	s.cpu = nil
	return out
}

// SetQueueDepth sets the simulated traffic-manager queue occupancy exposed
// to programs as meta.qdepth.
func (s *Switch) SetQueueDepth(d uint32) { s.queueDepth.Store(d) }
