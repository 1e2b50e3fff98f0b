package obs

// Mean returns the average observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Errors returns how many error messages were recorded.
func (l *Logger) Errors() uint64 { return l.errors.Value() }

// Infos returns how many informational messages were recorded.
func (l *Logger) Infos() uint64 { return l.infos.Value() }

// Last returns the newest sample's value, and whether any sample exists.
func (w *Window) Last() (uint64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.n == 0 {
		return 0, false
	}
	newest := (w.head - 1 + len(w.v)) % len(w.v)
	return w.v[newest], true
}
