package resource

import "sort"

// Programs lists linked program names in sorted order.
func (m *Manager) Programs() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.programs))
	for n := range m.programs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Program looks up a linked program.
func (m *Manager) Program(name string) (*ProgramAlloc, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	a, ok := m.programs[name]
	return a, ok
}

// UsedEntries returns the reserved table entries of an RPB.
func (m *Manager) UsedEntries(id RPBID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.rpb(id)
	if err != nil {
		return 0
	}
	return st.entriesUsed
}

// IsIngress reports whether an RPB is in the ingress pipeline.
func (m *Manager) IsIngress(id RPBID) bool { return int(id) <= m.N }
