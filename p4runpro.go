// Package p4runpro is a faithful Go reproduction of "P4runpro: Enabling
// Runtime Programmability for RMT Programmable Switches" (SIGCOMM 2024).
//
// It bundles a simulated RMT switch ASIC (internal/rmt), the P4runpro data
// plane laid out on it (internal/dataplane), the P4runpro language and
// translation pipeline (internal/lang), the runtime compiler with its
// SMT-based resource allocation (internal/core, internal/smt), the resource
// manager (internal/resource), and a control plane with an optional TCP
// control channel (internal/controlplane, internal/wire).
//
// The typical flow mirrors the paper's workflow: provision a switch once,
// then link and revoke programs at runtime:
//
//	ct, err := p4runpro.Open(p4runpro.DefaultConfig(), p4runpro.DefaultOptions())
//	reports, err := ct.Deploy(src)      // link a P4runpro program
//	res := ct.SW.Inject(packet, port)   // process traffic
//	_, err = ct.Revoke("cache")         // unlink, with consistent deletion
//
// See the examples directory for runnable end-to-end scenarios and
// cmd/experiments for the reproduction of every table and figure in the
// paper's evaluation.
package p4runpro

import (
	"p4runpro/internal/chain"
	"p4runpro/internal/controlplane"
	"p4runpro/internal/core"
	"p4runpro/internal/fabric"
	"p4runpro/internal/pkt"
	"p4runpro/internal/rmt"
	"p4runpro/internal/wire"
)

// Core façade types. These aliases are the supported public surface; the
// internal packages they point at carry the full documentation.
type (
	// Config fixes the simulated ASIC's dimensions.
	Config = rmt.Config
	// Options configures the runtime compiler (recirculation budget,
	// allocation objective).
	Options = core.Options
	// Controller owns a provisioned switch and the program lifecycle.
	Controller = controlplane.Controller
	// FiveTuple identifies a flow.
	FiveTuple = pkt.FiveTuple
	// BatchItem is one packet of a Switch.InjectBatch burst; the batched
	// injection API amortizes per-packet dispatch (see docs/PERFORMANCE.md).
	BatchItem = rmt.BatchItem
	// Server serves the control protocol over TCP.
	Server = wire.Server
	// Client is the typed control-protocol client.
	Client = wire.Client
)

// Objective kinds for Options.Objective.
const (
	ObjF1 = core.ObjF1
	ObjF2 = core.ObjF2
	ObjF3 = core.ObjF3
)

// DefaultConfig returns the paper's prototype dimensions: a single Tofino
// pipeline with 10 ingress and 12 egress RPBs, 2,048-entry tables and
// 65,536-word memories per RPB.
func DefaultConfig() Config { return rmt.DefaultConfig() }

// DefaultOptions returns the prototype compiler configuration: R=1 and the
// f1 objective with alpha=0.7, beta=0.3.
func DefaultOptions() Options { return core.DefaultOptions() }

// Open provisions a new simulated switch with the P4runpro data plane and
// returns its controller. Provisioning happens exactly once per switch; all
// later reconfiguration is runtime table-entry work.
func Open(cfg Config, opt Options) (*Controller, error) {
	return controlplane.New(cfg, opt)
}

// Serve starts a control-protocol server for a controller on addr and
// returns the bound address (useful with ":0").
func Serve(ct *Controller, addr string) (*Server, string, error) {
	srv := wire.NewServer(ct, nil)
	bound, err := srv.Listen(addr)
	if err != nil {
		return nil, "", err
	}
	return srv, bound, nil
}

// Connect dials a remote controller daemon.
func Connect(addr string) (*Client, error) { return wire.Dial(addr) }

// Fabric wires switches into multi-switch topologies (chain, ring,
// leaf–spine) with TTL-limited cross-hop forwarding, fabric-wide replay,
// and stitched path telemetry; see docs/FABRIC.md.
type Fabric = fabric.Fabric

// FabricOptions tunes a fabric (hop budget, fabric port base, path-trace
// sampling).
type FabricOptions = fabric.Options

// PathTrace is an end-to-end record of one sampled packet's journey across
// a fabric: per-switch postcards stitched under one fabric-assigned ID.
type PathTrace = fabric.PathTrace

// FabricReplayOptions tunes fabric-wide replay (burst size, default entry
// node).
type FabricReplayOptions = fabric.ReplayOptions

// FabricReplayResult is the end-to-end outcome of a fabric replay:
// delivery counters, per-node accounting, hop histogram, sampled traces.
type FabricReplayResult = fabric.ReplayResult

// NewFabric creates an empty fabric; add nodes (OpenFabricNodes) and wire a
// topology before injecting traffic.
func NewFabric(opt FabricOptions) *Fabric { return fabric.New(opt) }

// OpenFabricNodes provisions one controller per name (each owning a
// P4runpro-programmed switch) and registers the switches as fabric nodes,
// returning the controllers keyed by node name for program deployment.
// Wire a topology afterwards — the builders reuse pre-added nodes.
func OpenFabricNodes(f *Fabric, cfg Config, opt Options, names ...string) (map[string]*Controller, error) {
	out := make(map[string]*Controller, len(names))
	for _, name := range names {
		ct, err := controlplane.New(cfg, opt)
		if err != nil {
			return nil, err
		}
		if _, err := f.Add(name, ct.SW); err != nil {
			return nil, err
		}
		out[name] = ct
	}
	return out, nil
}

// Chain is a path of chained switches acting as one logical target — the
// paper's §4.1.3 alternative of replacing recirculation with multiple
// switches on the same path.
type Chain = chain.Chain

// OpenChain provisions k chained switches whose compiler places pass p of
// every program on switch p; packets cross hops through the serialized
// recirculation shim.
func OpenChain(k int, cfg Config, opt Options) (*Chain, error) {
	return chain.New(k, cfg, opt)
}
