package fleet

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Unit is one desired deployment: a source blob (which may link several
// programs — they place, fail over, and revoke together), the replica
// target, and the members currently believed to hold it. The store is the
// fleet's intent; the reconcile loop drives members toward it.
type Unit struct {
	Key      string   // comma-joined program names, stable unit identity
	Source   string   // the deployed P4runpro source text
	Programs []string // program names linked from Source
	Replicas int      // desired replica count
	Members  []string // members assigned to hold this unit
	Entries  int      // table entries per replica, from the first member plan
	MemWords uint32   // memory words per replica, from the first member plan
}

func (u *Unit) clone() *Unit {
	c := *u
	c.Programs = append([]string(nil), u.Programs...)
	c.Members = append([]string(nil), u.Members...)
	return &c
}

func (u *Unit) hasMember(name string) bool {
	for _, m := range u.Members {
		if m == name {
			return true
		}
	}
	return false
}

// Store is the fleet's desired-state store. All methods are safe for
// concurrent use; List and lookups return copies so callers can't mutate
// intent behind the store's back.
type Store struct {
	mu    sync.Mutex
	units map[string]*Unit // key -> unit
	byPrg map[string]string
}

// NewStore creates an empty desired-state store.
func NewStore() *Store {
	return &Store{units: make(map[string]*Unit), byPrg: make(map[string]string)}
}

// UnitKey derives a unit's identity from its program names.
func UnitKey(programs []string) string { return strings.Join(programs, ",") }

// Put records (or replaces) a unit's desired state. It fails if any of the
// unit's programs already belongs to a different unit.
func (s *Store) Put(u *Unit) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range u.Programs {
		if k, ok := s.byPrg[p]; ok && k != u.Key {
			return fmt.Errorf("fleet: program %q already deployed in unit %q", p, k)
		}
	}
	s.units[u.Key] = u.clone()
	for _, p := range u.Programs {
		s.byPrg[p] = u.Key
	}
	return nil
}

// Delete removes a unit from the desired state, returning its final copy.
func (s *Store) Delete(key string) (*Unit, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.units[key]
	if !ok {
		return nil, false
	}
	delete(s.units, key)
	for _, p := range u.Programs {
		delete(s.byPrg, p)
	}
	return u, true
}

// Resolve finds a unit by exact key or by any program it links.
func (s *Store) Resolve(nameOrKey string) (*Unit, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if u, ok := s.units[nameOrKey]; ok {
		return u.clone(), true
	}
	if k, ok := s.byPrg[nameOrKey]; ok {
		return s.units[k].clone(), true
	}
	return nil, false
}

// OwnerOf reports which unit a program belongs to.
func (s *Store) OwnerOf(program string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k, ok := s.byPrg[program]
	return k, ok
}

// List returns every unit, sorted by key for stable iteration.
func (s *Store) List() []*Unit {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Unit, 0, len(s.units))
	for _, u := range s.units {
		out = append(out, u.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// SetMembers replaces a unit's member assignment (reconcile's write path).
func (s *Store) SetMembers(key string, members []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if u, ok := s.units[key]; ok {
		u.Members = append([]string(nil), members...)
	}
}
