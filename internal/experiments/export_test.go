package experiments

// IngressEntryPressure summarizes a heatmap's last segment: mean entry
// utilization of ingress vs egress RPBs, quantifying the Appendix C
// observation that poor objectives exhaust ingress entries while egress
// RPBs idle.
func IngressEntryPressure(h HeatmapData, ingressRPBs int) (ingress, egress float64) {
	if len(h.Entries) == 0 {
		return 0, 0
	}
	last := h.Entries[len(h.Entries)-1]
	var iSum, eSum float64
	for i, v := range last {
		if i < ingressRPBs {
			iSum += v
		} else {
			eSum += v
		}
	}
	return iSum / float64(ingressRPBs), eSum / float64(len(last)-ingressRPBs)
}
