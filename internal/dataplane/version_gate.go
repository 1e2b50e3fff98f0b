package dataplane

import (
	"fmt"
	"sync/atomic"

	"p4runpro/internal/rmt"
)

// ActionVersionedDispatch is the upgrade-time init-block action. Where the
// plain "set_program" action pins an init entry to one program ID at install
// time, the versioned dispatch resolves the ID per packet through a version
// gate, so a single epoch publication cuts every parsing path's traffic over
// from v1 to v2 (or back) without touching any table entry.
const ActionVersionedDispatch = "set_program_versioned"

// VersionEpoch is one published cutover decision for an in-flight program
// upgrade: the two linked versions' program IDs and which of them freshly
// arriving packets are assigned. Epochs are immutable once published —
// flipping the active version publishes a fresh epoch behind the gate's
// atomic pointer.
type VersionEpoch struct {
	V1, V2 uint16 // program IDs of the old and new version
	Active uint16 // the ID assigned to newly arriving packets (V1 or V2)
}

// versionGate holds one upgrade's published epoch plus per-version packet
// counters (bumped once per packet, on its first pass — the health signal a
// rollout gates on).
type versionGate struct {
	epoch          atomic.Pointer[VersionEpoch]
	v1Pkts, v2Pkts atomic.Uint64
}

// NewVersionGate registers a fresh dispatch gate pinned to v1 and returns
// its ID, which dispatch entries carry as their single action parameter.
func (pl *Plane) NewVersionGate(v1, v2 uint16) uint32 {
	pl.gateMu.Lock()
	defer pl.gateMu.Unlock()
	pl.nextGate++
	id := pl.nextGate
	g := &versionGate{}
	g.epoch.Store(&VersionEpoch{V1: v1, V2: v2, Active: v1})
	old := pl.gates.Load()
	m := make(map[uint32]*versionGate, 1)
	if old != nil {
		for k, v := range *old {
			m[k] = v
		}
	}
	m[id] = g
	pl.gates.Store(&m)
	return id
}

func (pl *Plane) gate(id uint32) *versionGate {
	gp := pl.gates.Load()
	if gp == nil {
		return nil
	}
	return (*gp)[id]
}

// PublishEpoch atomically publishes the gate's active version. One pointer
// store flips every init table's dispatch entries at once — the cutover
// itself installs and removes nothing.
func (pl *Plane) PublishEpoch(id uint32, active uint16) error {
	g := pl.gate(id)
	if g == nil {
		return fmt.Errorf("dataplane: no version gate %d", id)
	}
	ep := *g.epoch.Load()
	if active != ep.V1 && active != ep.V2 {
		return fmt.Errorf("dataplane: gate %d: program ID %d is neither version (v1=%d v2=%d)",
			id, active, ep.V1, ep.V2)
	}
	ep.Active = active
	g.epoch.Store(&ep)
	return nil
}

// RetireVersionGate pins the gate permanently to the surviving version's
// program ID. The gate stays registered: a packet mid-pipeline that loaded a
// table snapshot before the dispatch entries were deleted may still execute
// a dispatch action after they are gone, and it must keep resolving to the
// survivor rather than miss both versions.
func (pl *Plane) RetireVersionGate(id uint32, survivor uint16) {
	g := pl.gate(id)
	if g == nil {
		return
	}
	g.epoch.Store(&VersionEpoch{V1: survivor, V2: survivor, Active: survivor})
}

// GateEpoch returns the gate's currently published epoch.
func (pl *Plane) GateEpoch(id uint32) (VersionEpoch, bool) {
	g := pl.gate(id)
	if g == nil {
		return VersionEpoch{}, false
	}
	return *g.epoch.Load(), true
}

// GateCounts returns how many packets the gate has assigned to each version
// (first pass only; recirculation passes re-match but are latched).
func (pl *Plane) GateCounts(id uint32) (v1, v2 uint64) {
	g := pl.gate(id)
	if g == nil {
		return 0, 0
	}
	return g.v1Pkts.Load(), g.v2Pkts.Load()
}

// dispatchVersioned is the versioned init action: params[0] names a version
// gate whose published epoch decides which version's program ID a freshly
// arriving packet gets. A packet already carrying either version's ID keeps
// it — recirculated packets re-match the init block every pass, and this
// latch pins them to their first-pass version, so no packet ever executes a
// mix of v1 and v2 across passes even if the epoch flips mid-flight.
func (pl *Plane) dispatchVersioned(p *rmt.PHV, params []uint32) {
	g := pl.gate(params[0])
	if g == nil {
		return
	}
	ep := g.epoch.Load()
	cur := p.Load(pl.phv.prog)
	if cur == uint32(ep.V1) || cur == uint32(ep.V2) {
		return
	}
	p.Store(pl.phv.prog, uint32(ep.Active))
	if ep.Active == ep.V2 && ep.V2 != ep.V1 {
		g.v2Pkts.Add(1)
	} else {
		g.v1Pkts.Add(1)
	}
}
