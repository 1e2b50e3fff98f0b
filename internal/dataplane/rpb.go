package dataplane

import (
	"fmt"

	"p4runpro/internal/pkt"
	"p4runpro/internal/rmt"
)

// RPB table key positions: the three control flags, then the three
// registers (paper §4.1.2: "a large table with the keys of control flags
// and registers").
const (
	rkProg = iota
	rkBranch
	rkRecirc
	rkHAR
	rkSAR
	rkMAR
	rpbKeyCount
)

// Register codes used in entry parameters; they match lang.Reg.
const (
	regHAR = 1
	regSAR = 2
	regMAR = 3
)

func rpbKeyFunc(p *rmt.PHV) []uint32 {
	k := p.KeyScratch(rpbKeyCount)
	k[rkProg] = p.Get(FieldProg)
	k[rkBranch] = p.Get(FieldBranch)
	k[rkRecirc] = p.Get(FieldRecirc)
	k[rkHAR] = p.Get(FieldHAR)
	k[rkSAR] = p.Get(FieldSAR)
	k[rkMAR] = p.Get(FieldMAR)
	return k
}

func regGet(p *rmt.PHV, code uint32) uint32 {
	switch code {
	case regHAR:
		return p.Get(FieldHAR)
	case regSAR:
		return p.Get(FieldSAR)
	case regMAR:
		return p.Get(FieldMAR)
	}
	panic(fmt.Sprintf("dataplane: bad register code %d", code))
}

func regSet(p *rmt.PHV, code, v uint32) {
	switch code {
	case regHAR:
		p.Set(FieldHAR, v)
	case regSAR:
		p.Set(FieldSAR, v)
	case regMAR:
		p.Set(FieldMAR, v)
	default:
		panic(fmt.Sprintf("dataplane: bad register code %d", code))
	}
}

func (pl *Plane) provisionRPBs() error {
	cfg := pl.SW.Config()
	pl.rpbs = make([]*rmt.Table, pl.M)
	for i := 0; i < pl.M; i++ {
		id := i + 1
		var g rmt.Gress
		var stage int
		if id <= pl.N {
			g, stage = rmt.Ingress, id
		} else {
			g, stage = rmt.Egress, id-pl.N-1
		}
		t, err := pl.SW.AddTable(fmt.Sprintf("rpb_%02d", id), g, stage, cfg.TableCapacity, rpbKeyCount, rpbKeyFunc)
		if err != nil {
			return err
		}
		// Declare the key layout so Table.Apply replaces rpbKeyFunc's six
		// string-keyed Get calls with direct container reads (field order
		// must match the rk* key indices above).
		if err := t.SetPHVKeyFields(pl.SW.PHVLayout(), FieldProg, FieldBranch, FieldRecirc, FieldHAR, FieldSAR, FieldMAR); err != nil {
			return err
		}
		if err := pl.registerActions(t, g, stage); err != nil {
			return err
		}
		pl.rpbs[i] = t
	}
	return nil
}

// registerActions installs the full atomic-operation set on one RPB table.
// Every RPB supports every primitive (the paper's first design principle,
// §4.2), except that forwarding actions exist only in ingress RPBs because
// the traffic manager executes forwarding before the egress pipeline.
func (pl *Plane) registerActions(t *rmt.Table, g rmt.Gress, stage int) error {
	sw := pl.SW
	memMask := uint32(sw.Config().MemoryWords - 1)
	unit16, err := sw.HashUnit(g, stage, 0)
	if err != nil {
		return err
	}
	unit32, err := sw.HashUnit(g, stage, 1)
	if err != nil {
		return err
	}
	fieldNames := pl.fieldNames

	getField := func(p *rmt.PHV, id uint32) uint32 {
		name := fieldNames[id]
		switch name {
		case "meta.ingress_port":
			return uint32(p.Meta.IngressPort)
		case "meta.qdepth":
			return p.Meta.QueueDepth
		case "meta.pkt_len":
			return p.Meta.PktLen
		case "meta.ttl":
			return p.Meta.TTL
		}
		v, err := p.Packet.GetField(name)
		if err != nil {
			// Absent header: hardware would read an invalid container;
			// the filter tables should prevent this, so surface zero.
			return 0
		}
		return v
	}
	setField := func(p *rmt.PHV, id, v uint32) {
		name := fieldNames[id]
		_ = p.Packet.SetField(name, v) // absent header: write is dropped
	}

	mem := func(op rmt.SALUOp, updateSAR bool) rmt.ActionFunc {
		return func(p *rmt.PHV, _ []uint32) {
			addr := p.Get(FieldPhysAddr) & memMask
			res, err := sw.AccessMemory(p, op, addr, p.Get(FieldSAR))
			if err != nil {
				panic(fmt.Sprintf("dataplane: memory action: %v", err))
			}
			if updateSAR {
				p.Set(FieldSAR, res)
			}
		}
	}

	type actionSpec struct {
		name string
		vliw int
		fn   rmt.ActionFunc
	}
	actions := []actionSpec{
		{"nop", 1, func(p *rmt.PHV, _ []uint32) {}},
		{"set_branch", 1, func(p *rmt.PHV, params []uint32) { p.Set(FieldBranch, params[0]) }},
		{"extract", 1, func(p *rmt.PHV, params []uint32) { regSet(p, params[1], getField(p, params[0])) }},
		{"modify", 1, func(p *rmt.PHV, params []uint32) { setField(p, params[0], regGet(p, params[1])) }},
		{"hash5", 1, func(p *rmt.PHV, _ []uint32) {
			p.Set(FieldHAR, unit32.Sum(p.Packet.FiveTuple().Bytes()))
		}},
		{"hash", 1, func(p *rmt.PHV, _ []uint32) {
			p.Set(FieldHAR, unit32.SumWord(p.Get(FieldHAR)))
		}},
		// The *_mem hash actions fuse the mask step of address translation
		// (params[0] is the mask adjusting the output width to the virtual
		// block size) so overflowed hash bits are invisible to later
		// primitives (§4.1.2).
		{"hash5_mem", 1, func(p *rmt.PHV, params []uint32) {
			p.Set(FieldMAR, unit16.SumMasked(p.Packet.FiveTuple().Bytes(), params[0]))
		}},
		{"hash_mem", 1, func(p *rmt.PHV, params []uint32) {
			p.Set(FieldMAR, unit16.SumWord(p.Get(FieldHAR))&params[0])
		}},
		// The offset step: physical address into the extra PHV field, SALU
		// flag set concurrently, mar preserved.
		{"offset", 2, func(p *rmt.PHV, params []uint32) {
			p.Set(FieldPhysAddr, p.Get(FieldMAR)+params[0])
			p.Set(FieldSALUFlag, 1)
		}},
		{"mem_add", 1, mem(rmt.SALUAdd, true)},
		{"mem_sub", 1, mem(rmt.SALUSub, true)},
		{"mem_and", 1, mem(rmt.SALUAnd, true)},
		{"mem_or", 1, mem(rmt.SALUOr, true)},
		{"mem_read", 1, mem(rmt.SALURead, true)},
		{"mem_write", 1, mem(rmt.SALUWrite, false)},
		{"mem_max", 1, mem(rmt.SALUMax, false)},
		{"loadi", 1, func(p *rmt.PHV, params []uint32) { regSet(p, params[0], params[1]) }},
		{"add", 1, func(p *rmt.PHV, params []uint32) {
			regSet(p, params[0], regGet(p, params[0])+regGet(p, params[1]))
		}},
		{"and", 1, func(p *rmt.PHV, params []uint32) {
			regSet(p, params[0], regGet(p, params[0])&regGet(p, params[1]))
		}},
		{"or", 1, func(p *rmt.PHV, params []uint32) {
			regSet(p, params[0], regGet(p, params[0])|regGet(p, params[1]))
		}},
		{"max", 1, func(p *rmt.PHV, params []uint32) {
			if b := regGet(p, params[1]); b > regGet(p, params[0]) {
				regSet(p, params[0], b)
			}
		}},
		{"min", 1, func(p *rmt.PHV, params []uint32) {
			if b := regGet(p, params[1]); b < regGet(p, params[0]) {
				regSet(p, params[0], b)
			}
		}},
		{"xor", 1, func(p *rmt.PHV, params []uint32) {
			regSet(p, params[0], regGet(p, params[0])^regGet(p, params[1]))
		}},
		{"backup", 1, func(p *rmt.PHV, params []uint32) { p.Set(FieldBak, regGet(p, params[0])) }},
		{"restore", 1, func(p *rmt.PHV, params []uint32) { regSet(p, params[0], p.Get(FieldBak)) }},
	}
	if g == rmt.Ingress {
		actions = append(actions,
			actionSpec{"forward", 1, func(p *rmt.PHV, params []uint32) {
				p.Meta.EgressSpec = int(params[0])
				p.Meta.Drop, p.Meta.Reflect, p.Meta.ToCPU = false, false, false
			}},
			actionSpec{"drop", 1, func(p *rmt.PHV, _ []uint32) { p.Meta.Drop = true }},
			actionSpec{"return", 1, func(p *rmt.PHV, _ []uint32) { p.Meta.Reflect = true }},
			actionSpec{"report", 1, func(p *rmt.PHV, _ []uint32) { p.Meta.ToCPU = true }},
			actionSpec{"multicast", 1, func(p *rmt.PHV, params []uint32) {
				p.Meta.McastGroup = int(params[0])
			}},
		)
	}
	for _, a := range actions {
		if err := t.RegisterAction(a.name, a.vliw, a.fn); err != nil {
			return err
		}
	}
	return nil
}

func (pl *Plane) provisionRecircBlock() error {
	cfg := pl.SW.Config()
	// The recirculation block occupies the last ingress stage and rewrites
	// the P4runpro header (registers + flags, carried in the PHV across
	// passes in the simulator) while flagging the traffic manager.
	t, err := pl.SW.AddTable("recirc_block", rmt.Ingress, cfg.IngressStages-1, cfg.TableCapacity, 3, func(p *rmt.PHV) []uint32 {
		k := p.KeyScratch(3)
		k[0], k[1], k[2] = p.Get(FieldProg), p.Get(FieldBranch), p.Get(FieldRecirc)
		return k
	})
	if err != nil {
		return err
	}
	if err := t.SetPHVKeyFields(pl.SW.PHVLayout(), FieldProg, FieldBranch, FieldRecirc); err != nil {
		return err
	}
	if err := t.RegisterAction("recirculate", 2, func(p *rmt.PHV, _ []uint32) {
		// Only flag the traffic manager here; the recirculation ID is
		// written into the shim header and takes effect when the packet
		// re-enters the parser (the switch's recirculation hook), so the
		// egress RPBs of the current pass still observe the old ID.
		p.Meta.Recirc = true
	}); err != nil {
		return err
	}
	pl.recircTbl = t
	pl.SW.SetRecircHook(func(p *rmt.PHV) {
		p.Set(FieldRecirc, p.Get(FieldRecirc)+1)
	})
	// Chain mode (paper §4.1.3: recirculation replaced by multiple
	// switches on the path): the emit hook serializes the execution
	// context into the recirculation shim before the packet leaves for the
	// next switch; the parse hook restores it when the shim arrives.
	pl.SW.SetEmitHook(func(p *rmt.PHV) {
		shim := &pkt.RecircShim{
			HAR:       p.Get(FieldHAR),
			SAR:       p.Get(FieldSAR),
			MAR:       p.Get(FieldMAR),
			ProgramID: uint16(p.Get(FieldProg)),
			BranchID:  uint16(p.Get(FieldBranch)),
			RecircID:  uint8(p.Get(FieldRecirc)) + 1,
		}
		if p.Meta.Drop {
			shim.Flags |= pkt.ShimDrop
		}
		if p.Meta.Reflect {
			shim.Flags |= pkt.ShimReflect
		}
		if p.Meta.ToCPU {
			shim.Flags |= pkt.ShimToCPU
		}
		if p.Meta.EgressSpec >= 0 {
			shim.EgressSpec = uint8(p.Meta.EgressSpec) + 1
		}
		shim.McastGroup = uint8(p.Meta.McastGroup)
		if p.Packet.Shim == nil {
			p.Packet.WireLen += pkt.ShimBytes
		}
		p.Packet.Shim = shim
	})
	pl.SW.SetParseHook(func(p *rmt.PHV) {
		shim := p.Packet.Shim
		if shim == nil {
			return
		}
		p.Set(FieldHAR, shim.HAR)
		p.Set(FieldSAR, shim.SAR)
		p.Set(FieldMAR, shim.MAR)
		p.Set(FieldProg, uint32(shim.ProgramID))
		p.Set(FieldBranch, uint32(shim.BranchID))
		p.Set(FieldRecirc, uint32(shim.RecircID))
		p.Meta.Drop = shim.Flags&pkt.ShimDrop != 0
		p.Meta.Reflect = shim.Flags&pkt.ShimReflect != 0
		p.Meta.ToCPU = shim.Flags&pkt.ShimToCPU != 0
		if shim.EgressSpec > 0 {
			p.Meta.EgressSpec = int(shim.EgressSpec) - 1
		}
		p.Meta.McastGroup = int(shim.McastGroup)
		// The shim is consumed on entry; it is re-attached by the emit
		// hook if another hop is needed.
		p.Packet.Shim = nil
		p.Packet.WireLen -= pkt.ShimBytes
	})
	return nil
}
