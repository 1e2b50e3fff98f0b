package fabric

import (
	"fmt"
	"time"

	"p4runpro/internal/rmt"
)

// Topology builder. WireLeafSpine creates the switches itself (one
// rmt.Switch per node, from the given config), registers them as nodes, and
// wires fabric links starting at PortBase, leaving ports below the base
// free for edge traffic. Port conventions:
//
//	leaf–spine:  leaf l's port base+s faces spine s;
//	             spine s's port base+l faces leaf l
//
// LeafUplinkPort and SpineDownlinkPort name these conventions so callers
// never hard-code offsets.

// LeafUplinkPort is the leaf port facing the given spine.
func (f *Fabric) LeafUplinkPort(spine int) int { return PortBase + spine }

// SpineDownlinkPort is the spine port facing the given leaf.
func (f *Fabric) SpineDownlinkPort(leaf int) int { return PortBase + leaf }

// WireLeafSpine builds leaves leaf0..leaf<L-1> and spines spine0..spine<S-1>
// from cfg and wires every leaf to every spine (a full bipartite folded
// Clos), full duplex, using the LeafUplinkPort/SpineDownlinkPort layout.
func (f *Fabric) WireLeafSpine(leaves, spines int, cfg rmt.Config, latency time.Duration) error {
	if leaves < 1 || spines < 1 {
		return fmt.Errorf("fabric: leaf-spine needs >= 1 leaf and >= 1 spine, got %d/%d", leaves, spines)
	}
	if err := f.addSeries("leaf", leaves, cfg); err != nil {
		return err
	}
	if err := f.addSeries("spine", spines, cfg); err != nil {
		return err
	}
	for l := 0; l < leaves; l++ {
		for s := 0; s < spines; s++ {
			leaf := fmt.Sprintf("leaf%d", l)
			spine := fmt.Sprintf("spine%d", s)
			if err := f.Connect(leaf, f.LeafUplinkPort(s), spine, f.SpineDownlinkPort(l), latency); err != nil {
				return err
			}
		}
	}
	return nil
}

// addSeries ensures nodes name0..name<n-1> exist, creating plain switches
// from cfg for the missing ones. Pre-adding a node under the same name (for
// example a controller-provisioned switch carrying the P4runpro data plane)
// makes the builder wire links around it instead.
func (f *Fabric) addSeries(name string, n int, cfg rmt.Config) error {
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s%d", name, i)
		if _, exists := f.nodes[id]; exists {
			continue
		}
		if _, err := f.Add(id, rmt.New(cfg)); err != nil {
			return err
		}
	}
	return nil
}
