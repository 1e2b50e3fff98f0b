package fleet

// Store exposes the desired-state store (read-mostly; mutate through
// Deploy/Revoke).
func (f *Fleet) Store() *Store { return f.store }
