package fabric

import "p4runpro/internal/obs"

// Metric registration. The fabric owns its registry (Fabric.Obs) so a host
// can mount it next to the switch registries; everything is exported as
// CounterFunc/GaugeFunc over the fabric's atomics — zero overhead on the
// forwarding path.

func (f *Fabric) registerMetrics() {
	f.Obs.CounterFunc("p4runpro_fabric_delivered_total",
		"Packets that exited the fabric on an edge port.", f.delivered.Load)
	f.Obs.CounterFunc("p4runpro_fabric_dropped_total",
		"Packets dropped by switch verdicts inside the fabric.", f.dropped.Load)
	f.Obs.CounterFunc("p4runpro_fabric_consumed_total",
		"Packets reported to a node CPU.", f.consumed.Load)
	f.Obs.CounterFunc("p4runpro_fabric_ttl_expired_total",
		"Packets dropped by the hop limit (routing loops).", f.ttlExpired.Load)
	f.Obs.CounterFunc("p4runpro_fabric_link_lost_total",
		"Packets lost to armed link faults.", f.linkLost.Load)
	f.Obs.GaugeFunc("p4runpro_fabric_nodes",
		"Switches registered in the fabric.", func() float64 { return float64(len(f.nodes)) })
	f.Obs.GaugeFunc("p4runpro_fabric_links",
		"Directed links wired in the fabric.", func() float64 { return float64(f.nlinks) })
}

func (f *Fabric) registerNodeMetrics(n *Node) {
	node := obs.L("node", n.Name)
	f.Obs.CounterFunc("p4runpro_fabric_node_injected_total",
		"Packets entering the node (edge plus fabric links).", n.injected.Load, node)
	f.Obs.CounterFunc("p4runpro_fabric_node_forwarded_total",
		"Packets the node pushed onto an outgoing fabric link.", n.forwarded.Load, node)
	f.Obs.CounterFunc("p4runpro_fabric_node_delivered_total",
		"Packets that exited the fabric at this node.", n.delivered.Load, node)
	f.Obs.CounterFunc("p4runpro_fabric_node_dropped_total",
		"Packets dropped at this node (verdicts plus TTL expiry).", n.dropped.Load, node)
}

func (f *Fabric) registerLinkMetrics(l *Link) {
	link := obs.L("link", l.String())
	f.Obs.CounterFunc("p4runpro_fabric_link_tx_total",
		"Packets offered to the link.", l.tx.Load, link)
	f.Obs.CounterFunc("p4runpro_fabric_link_rx_total",
		"Packets delivered to the link's peer endpoint.", l.rx.Load, link)
	f.Obs.CounterFunc("p4runpro_fabric_link_dropped_total",
		"Packets lost on the link to an armed fault.", l.drops.Load, link)
}
