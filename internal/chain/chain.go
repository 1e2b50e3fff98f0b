// Package chain implements the paper's §4.1.3 alternative to recirculation:
// "recirculation can also be replaced by multiple switches deployed on the
// same path". A Chain provisions K switches in chain mode (the traffic
// manager emits recirculation-flagged packets toward the next hop instead
// of looping them), deploys programs with pass p placed on switch p, and
// moves packets between hops over the wire format — the recirculation shim
// is serialized into real bytes and re-parsed at each hop, exactly as
// inter-switch links would carry it.
//
// Compared to single-switch recirculation, a chain trades switches for
// bandwidth: no throughput is lost to the loopback port, and every program
// gets K×22 RPBs of one pass each. The §4.3 constraints adjust as the paper
// notes: forwarding windows repeat per switch, while constraint (5) —
// sequential accesses to one virtual memory — becomes unsatisfiable, since
// a later pass can no longer revisit the same register array.
package chain

import (
	"context"
	"fmt"

	"p4runpro/internal/core"
	"p4runpro/internal/dataplane"
	"p4runpro/internal/pkt"
	"p4runpro/internal/rmt"
)

// Chain is a path of K chained switches acting as one logical P4runpro
// target.
type Chain struct {
	Switches []*rmt.Switch
	Planes   []*dataplane.Plane
	Compiler *core.Compiler
}

// New provisions a chain of k identical switches and a compiler that places
// pass p of every program on switch p.
func New(k int, cfg rmt.Config, opt core.Options) (*Chain, error) {
	if k < 1 {
		return nil, fmt.Errorf("chain: need at least one switch, got %d", k)
	}
	ch := &Chain{}
	var targets []core.PassTarget
	for i := 0; i < k; i++ {
		swCfg := cfg
		swCfg.EmitOnRecirc = true
		sw := rmt.New(swCfg)
		pl, err := dataplane.Provision(sw)
		if err != nil {
			return nil, fmt.Errorf("chain: switch %d: %w", i, err)
		}
		ch.Switches = append(ch.Switches, sw)
		ch.Planes = append(ch.Planes, pl)
	}
	comp := core.NewCompiler(ch.Planes[0], opt)
	for i := 0; i < k; i++ {
		mgr := comp.Mgr
		if i > 0 {
			mgr = core.NewManagerFor(ch.Planes[i])
		}
		targets = append(targets, core.PassTarget{Plane: ch.Planes[i], Mgr: mgr})
	}
	comp.SetPassTargets(targets)
	ch.Compiler = comp
	return ch, nil
}

// Len returns the number of switches.
func (ch *Chain) Len() int { return len(ch.Switches) }

// Deploy links every program in src across the chain.
func (ch *Chain) Deploy(src string) ([]*core.LinkedProgram, error) {
	return ch.Compiler.Link(context.Background(), src)
}

// Inject pushes a packet into the first switch and walks it down the path:
// a VerdictNextHop result is serialized through the shim wire format and
// re-parsed by the following switch until a final verdict emerges. The
// returned Result's Passes counts traversed switches.
func (ch *Chain) Inject(p *pkt.Packet, inPort int) rmt.Result {
	hops := 0
	cur := p
	for i := 0; i < len(ch.Switches); i++ {
		res := ch.Switches[i].Inject(cur, inPort)
		hops += res.Passes
		res.Passes = hops
		if res.Verdict != rmt.VerdictNextHop {
			return res
		}
		if i == len(ch.Switches)-1 {
			// The path ended with work remaining: the chain equivalent
			// of recirculation overflow.
			res.Verdict = rmt.VerdictRecircOverflow
			return res
		}
		next, err := pkt.Parse(res.Packet.Marshal())
		if err != nil {
			res.Verdict = rmt.VerdictRecircOverflow
			return res
		}
		cur = next
	}
	return rmt.Result{Verdict: rmt.VerdictNoDecision, OutPort: -1, Packet: cur, Passes: hops}
}
