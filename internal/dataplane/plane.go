// Package dataplane provisions the P4runpro data plane program onto the
// simulated RMT switch (paper §4.1): the PHV registers (har/sar/mar) and
// control flags, the initialization block (one filtering table per parsing
// path, assigning program IDs), the runtime programming blocks (RPBs — one
// large ternary table per remaining stage with the full atomic-operation
// action set and the stage's stateful memory), and the recirculation block.
// Everything here is fixed at provisioning time; the compiler reconfigures
// it purely through table entries.
package dataplane

import (
	"fmt"

	"p4runpro/internal/pkt"
	"p4runpro/internal/resource"
	"p4runpro/internal/rmt"
)

// PHV scratch field names.
const (
	FieldHAR      = "har"
	FieldSAR      = "sar"
	FieldMAR      = "mar"
	FieldBak      = "bak"      // supportive-register backup slot
	FieldPhysAddr = "physaddr" // offset-step output
	FieldSALUFlag = "saluflag"
	FieldProg     = "prog"
	FieldBranch   = "branch"
	FieldRecirc   = "recirc"
)

// Plane is the provisioned P4runpro data plane.
type Plane struct {
	SW *rmt.Switch

	// M physical RPBs: 1..N ingress, N+1..M egress.
	M, N int

	initTables map[pkt.ParseBitmap]*rmt.Table
	rpbs       []*rmt.Table // index 0 = RPB 1
	recircTbl  *rmt.Table

	fieldIDs     map[string]int // name -> field ID
	headerFields []headerField  // field ID -> accessors, for extract and modify

	phv slots
}

// Provision lays the P4runpro data plane image onto a freshly created
// switch. It must be called exactly once per switch, before any program is
// linked — like loading the P4 binary image in the conventional workflow.
func Provision(sw *rmt.Switch) (*Plane, error) {
	cfg := sw.Config()
	pl := &Plane{
		SW: sw,
		N:  cfg.IngressStages - 2, // minus initialization + recirculation blocks
		M:  cfg.IngressStages - 2 + cfg.EgressStages,

		initTables: make(map[pkt.ParseBitmap]*rmt.Table),
		fieldIDs:   make(map[string]int),
	}

	// Field ID space: parsed header fields plus readable metadata.
	fieldNames := append(pkt.FieldNames(), "meta.ingress_port", "meta.qdepth", "meta.pkt_len", "meta.ttl")
	for i, n := range fieldNames {
		pl.fieldIDs[n] = i
		pl.headerFields = append(pl.headerFields, resolveHeaderField(n))
	}

	layout := sw.PHVLayout()
	for _, f := range []struct {
		name string
		bits int
		slot *rmt.Slot
	}{
		{FieldHAR, 32, &pl.phv.har}, {FieldSAR, 32, &pl.phv.sar}, {FieldMAR, 32, &pl.phv.mar},
		{FieldBak, 32, &pl.phv.bak}, {FieldPhysAddr, 32, &pl.phv.physAddr},
		{FieldSALUFlag, 8, &pl.phv.saluFlag}, {FieldProg, 16, &pl.phv.prog},
		{FieldBranch, 16, &pl.phv.branch}, {FieldRecirc, 8, &pl.phv.recirc},
	} {
		if err := layout.Define(f.name, f.bits); err != nil {
			return nil, fmt.Errorf("dataplane: %w", err)
		}
		*f.slot, _ = layout.Slot(f.name)
	}

	if err := pl.provisionInitBlock(); err != nil {
		return nil, err
	}
	if err := pl.provisionRPBs(); err != nil {
		return nil, err
	}
	if err := pl.provisionRecircBlock(); err != nil {
		return nil, err
	}
	return pl, nil
}

// slots are the data plane's PHV fields, resolved once at provisioning:
// actions and hooks read and write them by container, never by name.
type slots struct {
	har, sar, mar, bak, physAddr, saluFlag, prog, branch, recirc rmt.Slot
}

// reg resolves a register code (lang.Reg) to its field.
func (s *slots) reg(code uint32) rmt.Slot {
	switch code {
	case regHAR:
		return s.har
	case regSAR:
		return s.sar
	case regMAR:
		return s.mar
	}
	panic(fmt.Sprintf("dataplane: bad register code %d", code))
}

func (s *slots) regGet(p *rmt.PHV, code uint32) uint32 { return p.Load(s.reg(code)) }

func (s *slots) regSet(p *rmt.PHV, code, v uint32) { p.Store(s.reg(code), v) }

// headerField reads and writes one field of the field ID space, resolved at
// provisioning. A field whose header the packet lacks reads as zero and
// drops writes: the hardware would read an invalid container, and the
// filter tables keep programs off packets without their headers. Metadata
// fields are read-only.
type headerField struct {
	get func(*rmt.PHV) uint32
	set func(*rmt.PHV, uint32)
}

func resolveHeaderField(name string) headerField {
	readOnly := func(*rmt.PHV, uint32) {}
	switch name {
	case "meta.ingress_port":
		return headerField{func(p *rmt.PHV) uint32 { return uint32(p.Meta.IngressPort) }, readOnly}
	case "meta.qdepth":
		return headerField{func(p *rmt.PHV) uint32 { return p.Meta.QueueDepth }, readOnly}
	case "meta.pkt_len":
		return headerField{func(p *rmt.PHV) uint32 { return p.Meta.PktLen }, readOnly}
	case "meta.ttl":
		return headerField{func(p *rmt.PHV) uint32 { return p.Meta.TTL }, readOnly}
	}
	acc, _ := pkt.Field(name)
	return headerField{
		func(p *rmt.PHV) uint32 { v, _ := acc.Get(p.Packet); return v },
		func(p *rmt.PHV, v uint32) { acc.Set(p.Packet, v) },
	}
}

// FieldID resolves a header/metadata field name to its compact ID used in
// entry parameters.
func (pl *Plane) FieldID(name string) (uint32, error) {
	id, ok := pl.fieldIDs[name]
	if !ok {
		return 0, fmt.Errorf("dataplane: unknown field %q", name)
	}
	return uint32(id), nil
}

// RPBTable returns the table backing a physical RPB (1-based).
func (pl *Plane) RPBTable(id resource.RPBID) (*rmt.Table, error) {
	if id < 1 || int(id) > pl.M {
		return nil, fmt.Errorf("dataplane: RPB %d out of range [1,%d]", id, pl.M)
	}
	return pl.rpbs[id-1], nil
}

// RPBStage maps a physical RPB to its pipeline position.
func (pl *Plane) RPBStage(id resource.RPBID) (rmt.Gress, int, error) {
	if id < 1 || int(id) > pl.M {
		return 0, 0, fmt.Errorf("dataplane: RPB %d out of range", id)
	}
	if int(id) <= pl.N {
		return rmt.Ingress, int(id), nil // ingress stage 0 is the init block
	}
	return rmt.Egress, int(id) - pl.N - 1, nil
}

// InitTable returns the filtering table of one parsing path.
func (pl *Plane) InitTable(path pkt.ParseBitmap) (*rmt.Table, error) {
	t, ok := pl.initTables[path]
	if !ok {
		return nil, fmt.Errorf("dataplane: no init table for parse path %s", path)
	}
	return t, nil
}

// RecircTable returns the recirculation block's table.
func (pl *Plane) RecircTable() *rmt.Table { return pl.recircTbl }

// Array returns the register array backing an RPB's stateful memory.
func (pl *Plane) Array(id resource.RPBID) (*rmt.RegisterArray, error) {
	g, st, err := pl.RPBStage(id)
	if err != nil {
		return nil, err
	}
	return pl.SW.Array(g, st)
}
