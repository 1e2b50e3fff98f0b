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

// switchMetrics is the always-on packet-path instrumentation: plain atomic
// counters updated inline (no locks, no allocation) so the observability
// layer can expose them without perturbing the pipeline. The <5% overhead
// budget is enforced by BenchmarkInstrumentationOverhead at the repo root.
type switchMetrics struct {
	packets  atomic.Uint64 // injected packets
	passes   atomic.Uint64 // pipeline passes consumed (>= packets)
	recircs  atomic.Uint64 // internal recirculations through the loopback port
	saluOps  atomic.Uint64 // stateful-ALU memory accesses on the packet path
	verdicts [VerdictNextHop + 1]atomic.Uint64
	lookups  []atomic.Uint64 // table lookups per flat stage (ingress first)
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

// Metrics snapshots the packet-path counters.
func (s *Switch) Metrics() MetricsSnapshot {
	m := MetricsSnapshot{
		Packets: s.met.packets.Load(),
		Passes:  s.met.passes.Load(),
		Recircs: s.met.recircs.Load(),
		SALUOps: s.met.saluOps.Load(),
	}
	for i := range s.met.verdicts {
		m.Verdicts[i] = s.met.verdicts[i].Load()
	}
	m.StageLookups = make([]uint64, len(s.met.lookups))
	for i := range s.met.lookups {
		m.StageLookups[i] = s.met.lookups[i].Load()
	}
	return m
}

// StageLookupCount returns the lookup counter of one flat stage index
// (ingress stages first, then egress) without snapshotting the whole
// metrics set — the cheap per-series accessor for scrape-time collectors.
func (s *Switch) StageLookupCount(flat int) uint64 {
	if flat < 0 || flat >= len(s.met.lookups) {
		return 0
	}
	return s.met.lookups[flat].Load()
}

// SetInstrumentation enables or disables packet-path metric recording.
// Instrumentation is on by default and costs only atomic adds; disabling it
// exists for the overhead benchmark and for experiments that want the
// absolute minimum per-packet cost. Not safe to toggle while traffic is in
// flight.
func (s *Switch) SetInstrumentation(enabled bool) { s.instrOff = !enabled }

// portCounter is one port's transmit statistics, updated atomically on the
// packet path so concurrent injection never tears or drops a count.
type portCounter struct {
	pkts  atomic.Uint64
	bytes atomic.Uint64
}

func (c *portCounter) add(wireLen int) {
	c.pkts.Add(1)
	c.bytes.Add(uint64(wireLen))
}

func (c *portCounter) snapshot() PortCounters {
	return PortCounters{TxPackets: c.pkts.Load(), TxBytes: c.bytes.Load()}
}

// Switch is a provisioned RMT ASIC: fixed stages, tables, register arrays,
// and hash units. Runtime reconfiguration is restricted to table entries and
// register values, exactly as on real RMT hardware.
//
// The packet path (InjectBatch and everything under it) is safe for concurrent
// use and lock-free: stage plans and table match state are immutable
// snapshots behind atomic pointers, all counters are atomics, register
// arrays linearize per word, and PHVs are recycled from a pool — modeling a
// Tofino's independent packet-processing engines, which forward at line rate
// while the control plane updates entries underneath them (paper §5).
type Switch struct {
	cfg    Config
	layout *PHVLayout

	mu        sync.RWMutex
	tables    map[string]*Table
	stagePlan map[stageKey][]*Table // application order within a stage
	// plan is the published flat stage plan (ingress stages first, then
	// egress), rebuilt copy-on-write under mu by AddTable and read
	// lock-free by runGress.
	plan atomic.Pointer[[][]*Table]

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
	rx      []portCounter
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

	met      switchMetrics
	instrOff bool // zero value = instrumented (the default)

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
		cfg:       cfg,
		layout:    NewPHVLayout(cfg.PHVBits),
		tables:    make(map[string]*Table),
		stagePlan: make(map[stageKey][]*Table),
		arrays:    make(map[stageKey]*RegisterArray),
		hash:      make(map[stageKey][]*hashing.Unit),
		ports:     make([]portCounter, cfg.Ports+8),
		rx:        make([]portCounter, cfg.Ports+8),
		cpuKeep:   1 << 16,
	}
	s.phvPool = &sync.Pool{New: func() any { return &PHV{} }}
	s.post.pool = new(sync.Pool)
	emptyPlan := make([][]*Table, cfg.IngressStages+cfg.EgressStages)
	s.plan.Store(&emptyPlan)
	s.met.lookups = make([]atomic.Uint64, cfg.IngressStages+cfg.EgressStages)
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
	s.stagePlan[k] = append(s.stagePlan[k], t)
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

// publishPlanLocked rebuilds the flat stage-plan snapshot from stagePlan and
// publishes it atomically. Caller holds s.mu.
func (s *Switch) publishPlanLocked() {
	flat := make([][]*Table, s.cfg.IngressStages+s.cfg.EgressStages)
	for k, plan := range s.stagePlan {
		flat[s.flatStage(k.g, k.stage)] = append([]*Table(nil), plan...)
	}
	s.plan.Store(&flat)
}

// Table finds a table by name.
func (s *Switch) Table(name string) (*Table, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[name]
	return t, ok
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
// so the one-access-per-stage hardware rule is enforced.
func (s *Switch) AccessMemory(p *PHV, op SALUOp, addr, operand uint32) (uint32, error) {
	g, st := p.CurrentStage()
	if p.touchMem(s.flatStage(g, st)) {
		return 0, fmt.Errorf("rmt: second stateful access in %s stage %d (hardware allows one per packet per stage)", g, st)
	}
	if !s.instrOff {
		s.met.saluOps.Add(1)
	}
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
		s.runGress(phv, Ingress)
		s.runGress(phv, Egress)
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
		s.recircPackets.Add(1)
		s.recircBytes.Add(uint64(p.WireLen))
		if !s.instrOff {
			s.met.recircs.Add(1)
		}
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
			s.tx(port, p)
		}
		return Result{Verdict: VerdictMulticast, OutPort: -1, OutPorts: ports, Packet: p, Passes: passes}
	case phv.Meta.Reflect:
		s.tx(inPort, p)
		return Result{Verdict: VerdictReflected, OutPort: inPort, Packet: p, Passes: passes}
	case phv.Meta.EgressSpec >= 0:
		s.tx(phv.Meta.EgressSpec, p)
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
// whole burst, and the packet/pass/verdict counters are accumulated locally
// and flushed once.
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
		if it.Port >= 0 && it.Port < len(s.rx) {
			s.rx[it.Port].add(it.Pkt.WireLen)
		}
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
	s.phvPool.Put(phv)
	if !s.instrOff {
		s.met.packets.Add(uint64(len(items)))
		s.met.passes.Add(passes)
		for v := range verdicts {
			if verdicts[v] > 0 {
				s.met.verdicts[v].Add(verdicts[v])
			}
		}
	}
}

func (s *Switch) runGress(phv *PHV, g Gress) {
	phv.gress = g
	n := s.cfg.StageCount(g)
	flatBase := 0
	if g == Egress {
		flatBase = s.cfg.IngressStages
	}
	plans := *s.plan.Load()
	for st := 0; st < n; st++ {
		phv.stage = st
		plan := plans[flatBase+st]
		for _, t := range plan {
			t.Apply(phv)
		}
		if !s.instrOff && len(plan) > 0 {
			s.met.lookups[flatBase+st].Add(uint64(len(plan)))
		}
	}
}

// PlanStats and CompiledPlan are shims for the frozen bench/ module, which
// asks before each burst whether a compiled plan is published. The plan
// layer is gone — every table snapshot is the lowered form — so the answer
// is always yes. The next benchmark PR deletes both.
type PlanStats struct{}

func (s *Switch) CompiledPlan() (PlanStats, bool) { return PlanStats{}, true }

func (s *Switch) tx(port int, p *pkt.Packet) {
	if port >= 0 && port < len(s.ports) {
		s.ports[port].add(p.WireLen)
	}
}

// PortStats returns the transmit counters of a port.
func (s *Switch) PortStats(port int) PortCounters {
	if port < 0 || port >= len(s.ports) {
		return PortCounters{}
	}
	return s.ports[port].snapshot()
}

// RxStats returns the receive counters of a port (packets injected on it).
// The fabric layer uses these for per-node tx/rx accounting and for the
// topology-aware placement policy's edge-traffic estimate.
func (s *Switch) RxStats(port int) PortCounters {
	if port < 0 || port >= len(s.rx) {
		return PortCounters{}
	}
	return s.rx[port].snapshot()
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

// ResetCounters zeroes all port counters (between experiment phases).
func (s *Switch) ResetCounters() {
	for i := range s.ports {
		s.ports[i].pkts.Store(0)
		s.ports[i].bytes.Store(0)
	}
	for i := range s.rx {
		s.rx[i].pkts.Store(0)
		s.rx[i].bytes.Store(0)
	}
	s.recircPackets.Store(0)
	s.recircBytes.Store(0)
}
