package fabric

import (
	"fmt"
	"time"

	"p4runpro/internal/rmt"
)

// Node finds a node by name.
func (f *Fabric) Node(name string) (*Node, bool) {
	n, ok := f.nodes[name]
	return n, ok
}

// Nodes returns the hop sequence as node names, in traversal order.
func (t *PathTrace) Nodes() []string {
	out := make([]string, len(t.Hops))
	for i, h := range t.Hops {
		out[i] = h.Node
	}
	return out
}

// WireChain builds nodes named name0..name<n-1> from cfg and wires them in a
// line: node i's next port to node i+1's prev port, full duplex.
func (f *Fabric) WireChain(name string, n int, cfg rmt.Config, latency time.Duration) error {
	if n < 2 {
		return fmt.Errorf("fabric: chain needs >= 2 nodes, got %d", n)
	}
	if err := f.addSeries(name, n, cfg); err != nil {
		return err
	}
	for i := 0; i+1 < n; i++ {
		a := fmt.Sprintf("%s%d", name, i)
		b := fmt.Sprintf("%s%d", name, i+1)
		if err := f.Connect(a, f.ChainNextPort(), b, f.ChainPrevPort(), latency); err != nil {
			return err
		}
	}
	return nil
}

// ChainNextPort is the port of a chain/ring node facing its successor.
func (f *Fabric) ChainNextPort() int { return PortBase + 1 }

// ChainPrevPort is the port of a chain/ring node facing its predecessor.
func (f *Fabric) ChainPrevPort() int { return PortBase }
