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
		t, err := pl.SW.AddTable(fmt.Sprintf("rpb_%02d", id), g, stage, cfg.TableCapacity, rpbKeyCount, nil)
		if err != nil {
			return err
		}
		// The key is exactly these PHV containers, in the order of the rk*
		// key indices above: Table.Apply reads them directly, so the table
		// needs no key function.
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
	f, hdr := &pl.phv, pl.headerFields

	mem := func(op rmt.SALUOp, updateSAR bool) rmt.ActionFunc {
		return func(p *rmt.PHV, _ []uint32) {
			addr := p.Load(f.physAddr) & memMask
			res, err := sw.AccessMemory(p, op, addr, p.Load(f.sar))
			if err != nil {
				panic(fmt.Sprintf("dataplane: memory action: %v", err))
			}
			if updateSAR {
				p.Store(f.sar, res)
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
		{"set_branch", 1, func(p *rmt.PHV, params []uint32) { p.Store(f.branch, params[0]) }},
		{"extract", 1, func(p *rmt.PHV, params []uint32) { f.regSet(p, params[1], hdr[params[0]].get(p)) }},
		{"modify", 1, func(p *rmt.PHV, params []uint32) { hdr[params[0]].set(p, f.regGet(p, params[1])) }},
		{"hash5", 1, func(p *rmt.PHV, _ []uint32) {
			p.Store(f.har, unit32.Sum(p.Packet.FiveTuple().Bytes()))
		}},
		{"hash", 1, func(p *rmt.PHV, _ []uint32) {
			p.Store(f.har, unit32.SumWord(p.Load(f.har)))
		}},
		// The *_mem hash actions fuse the mask step of address translation
		// (params[0] is the mask adjusting the output width to the virtual
		// block size) so overflowed hash bits are invisible to later
		// primitives (§4.1.2).
		{"hash5_mem", 1, func(p *rmt.PHV, params []uint32) {
			p.Store(f.mar, unit16.SumMasked(p.Packet.FiveTuple().Bytes(), params[0]))
		}},
		{"hash_mem", 1, func(p *rmt.PHV, params []uint32) {
			p.Store(f.mar, unit16.SumWord(p.Load(f.har))&params[0])
		}},
		// The offset step: physical address into the extra PHV field, SALU
		// flag set concurrently, mar preserved.
		{"offset", 2, func(p *rmt.PHV, params []uint32) {
			p.Store(f.physAddr, p.Load(f.mar)+params[0])
			p.Store(f.saluFlag, 1)
		}},
		{"mem_add", 1, mem(rmt.SALUAdd, true)},
		{"mem_sub", 1, mem(rmt.SALUSub, true)},
		{"mem_and", 1, mem(rmt.SALUAnd, true)},
		{"mem_or", 1, mem(rmt.SALUOr, true)},
		{"mem_read", 1, mem(rmt.SALURead, true)},
		{"mem_write", 1, mem(rmt.SALUWrite, false)},
		{"mem_max", 1, mem(rmt.SALUMax, false)},
		{"loadi", 1, func(p *rmt.PHV, params []uint32) { f.regSet(p, params[0], params[1]) }},
		{"add", 1, func(p *rmt.PHV, params []uint32) {
			f.regSet(p, params[0], f.regGet(p, params[0])+f.regGet(p, params[1]))
		}},
		{"and", 1, func(p *rmt.PHV, params []uint32) {
			f.regSet(p, params[0], f.regGet(p, params[0])&f.regGet(p, params[1]))
		}},
		{"or", 1, func(p *rmt.PHV, params []uint32) {
			f.regSet(p, params[0], f.regGet(p, params[0])|f.regGet(p, params[1]))
		}},
		{"max", 1, func(p *rmt.PHV, params []uint32) {
			if b := f.regGet(p, params[1]); b > f.regGet(p, params[0]) {
				f.regSet(p, params[0], b)
			}
		}},
		{"min", 1, func(p *rmt.PHV, params []uint32) {
			if b := f.regGet(p, params[1]); b < f.regGet(p, params[0]) {
				f.regSet(p, params[0], b)
			}
		}},
		{"xor", 1, func(p *rmt.PHV, params []uint32) {
			f.regSet(p, params[0], f.regGet(p, params[0])^f.regGet(p, params[1]))
		}},
		{"backup", 1, func(p *rmt.PHV, params []uint32) { p.Store(f.bak, f.regGet(p, params[0])) }},
		{"restore", 1, func(p *rmt.PHV, params []uint32) { f.regSet(p, params[0], p.Load(f.bak)) }},
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
	t, err := pl.SW.AddTable("recirc_block", rmt.Ingress, cfg.IngressStages-1, cfg.TableCapacity, 3, nil)
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
	f := &pl.phv
	pl.SW.SetRecircHook(func(p *rmt.PHV) {
		p.Store(f.recirc, p.Load(f.recirc)+1)
	})
	// Chain mode (paper §4.1.3: recirculation replaced by multiple
	// switches on the path): the emit hook serializes the execution
	// context into the recirculation shim before the packet leaves for the
	// next switch; the parse hook restores it when the shim arrives.
	pl.SW.SetEmitHook(func(p *rmt.PHV) {
		shim := &pkt.RecircShim{
			HAR:       p.Load(f.har),
			SAR:       p.Load(f.sar),
			MAR:       p.Load(f.mar),
			ProgramID: uint16(p.Load(f.prog)),
			BranchID:  uint16(p.Load(f.branch)),
			RecircID:  uint8(p.Load(f.recirc)) + 1,
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
		p.Store(f.har, shim.HAR)
		p.Store(f.sar, shim.SAR)
		p.Store(f.mar, shim.MAR)
		p.Store(f.prog, uint32(shim.ProgramID))
		p.Store(f.branch, uint32(shim.BranchID))
		p.Store(f.recirc, uint32(shim.RecircID))
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
