package resource

// IsIngress reports whether an RPB is in the ingress pipeline.
func (m *Manager) IsIngress(id RPBID) bool { return int(id) <= m.N }
