// Package activermt implements the comparison baseline of the paper's
// evaluation: ActiveRMT (Das & Snoeren, SIGCOMM '23), a capsule-based
// runtime-programmable switch whose instruction set is limited to memory
// operations. We implement the parts the paper's comparisons exercise:
//
//   - its memory-centric allocator with the "least constraint" fair
//     worst-fit scheme that remaps (recompacts) elastic programs' memory to
//     admit new ones, whose computation grows with the number of resident
//     programs and with finer allocation granularity (Figures 7a/7b);
//   - utilization-until-failure accounting (Figure 8);
//   - the per-packet capsule overhead active networking imposes on end
//     hosts and throughput (§2.2 / §6.3).
//
// Allocation delay is deterministic: the allocator counts the elementary
// operations its algorithm performs (per-unit scans, remap moves) and
// charges a calibrated per-operation cost, so runs are reproducible while
// preserving the published growth shape (beyond one second at high
// occupancy, versus P4runpro's flat per-epoch delay).
package activermt

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// ErrNoCapacity reports an admission failure.
var ErrNoCapacity = errors.New("activermt: no capacity")

// Config sizes the simulated ActiveRMT switch image.
type Config struct {
	Stages      int // stages available to active programs
	MemoryWords int // words per stage
	Granularity int // allocation unit in words (fixed, unlike P4runpro)
	// PerUnitOpCost is the modeled cost of one allocator unit operation.
	PerUnitOpCost time.Duration
	// CapsuleBytes is the per-packet active header overhead.
	CapsuleBytes int
}

// DefaultConfig mirrors the paper's comparison setup (memory size 65,536,
// least-constraint allocation).
func DefaultConfig() Config {
	return Config{
		Stages:        20,
		MemoryWords:   65536,
		Granularity:   256,
		PerUnitOpCost: 160 * time.Nanosecond,
		CapsuleBytes:  24,
	}
}

// Request describes one active program's demands.
type Request struct {
	Name         string
	Instructions int  // active instructions (one stage each)
	MemoryWords  int  // total stateful memory demanded
	Elastic      bool // memory may be shrunk to admit later programs
}

// allocation is one program's per-stage memory share.
type allocation struct {
	req    Request
	stages []int // stage indices used
	words  []int // words held per used stage
}

// Switch is the simulated ActiveRMT data plane resource state.
type Switch struct {
	cfg    Config
	free   []int // free words per stage
	allocs []*allocation
	// opCount accumulates elementary allocator operations for the
	// deterministic delay model.
	opCount int64
}

// New creates an empty ActiveRMT switch.
func New(cfg Config) *Switch {
	s := &Switch{cfg: cfg, free: make([]int, cfg.Stages)}
	for i := range s.free {
		s.free[i] = cfg.MemoryWords
	}
	return s
}

// round rounds words up to the allocation granularity.
func (s *Switch) round(words int) int {
	g := s.cfg.Granularity
	return (words + g - 1) / g * g
}

// Allocate admits a program using fair worst-fit with elastic remapping and
// returns the modeled allocation delay. The algorithm follows ActiveRMT's
// description: spread the demand over the least-utilized stages; when space
// runs out, shrink every elastic program toward its fair share and recompact
// — a whole-table remap whose cost grows with resident programs and with
// the unit count (memory/granularity).
func (s *Switch) Allocate(req Request) (time.Duration, error) {
	s.opCount = 0
	need := s.round(req.MemoryWords)
	if req.Instructions > s.cfg.Stages {
		return s.delay(), fmt.Errorf("activermt: %d instructions exceed %d stages", req.Instructions, s.cfg.Stages)
	}

	if !s.tryPlace(req, need) {
		// Elastic remap: shrink elastic programs to fair share, then
		// recompact everything — the expensive path.
		if !s.remapAndPlace(req, need) {
			return s.delay(), ErrNoCapacity
		}
	}
	return s.delay(), nil
}

// tryPlace attempts worst-fit placement without disturbing anyone.
func (s *Switch) tryPlace(req Request, need int) bool {
	// Worst-fit consults every resident allocation's footprint when
	// ranking stages, so cost grows with occupancy even before any
	// remapping (the early slope of Figure 7a).
	s.opCount += int64(len(s.allocs)) * 16
	stages := s.stagesByFreeDesc()
	per := 0
	if req.Instructions > 0 {
		per = s.round((need + req.Instructions - 1) / req.Instructions)
	}
	a := &allocation{req: req}
	remaining := need
	for _, st := range stages {
		if len(a.stages) == req.Instructions {
			break
		}
		take := per
		if take > remaining {
			take = s.round(remaining)
		}
		// Unit-scan cost: worst-fit inspects the stage's unit bitmap.
		s.opCount += int64(s.cfg.MemoryWords / s.cfg.Granularity)
		if s.free[st] < take {
			return false
		}
		a.stages = append(a.stages, st)
		a.words = append(a.words, take)
		remaining -= take
	}
	if len(a.stages) < req.Instructions || remaining > 0 {
		return false
	}
	for i, st := range a.stages {
		s.free[st] -= a.words[i]
	}
	s.allocs = append(s.allocs, a)
	return true
}

// remapAndPlace shrinks elastic programs toward the fair share and
// recompacts the whole switch, then retries placement.
func (s *Switch) remapAndPlace(req Request, need int) bool {
	elastic := 0
	for _, a := range s.allocs {
		if a.req.Elastic {
			elastic++
		}
	}
	if elastic == 0 {
		return false
	}
	// Fair share: total memory divided among elastic programs + newcomer.
	fair := s.cfg.Stages * s.cfg.MemoryWords / (len(s.allocs) + 1) / 2
	fair = s.round(fair)
	for _, a := range s.allocs {
		if !a.req.Elastic {
			continue
		}
		total := 0
		for _, w := range a.words {
			total += w
		}
		if total <= fair {
			continue
		}
		// Shrink proportionally; each unit released is a remap move
		// (rewriting per-unit address translations on the switch).
		scale := float64(fair) / float64(total)
		for i := range a.words {
			newW := s.round(int(float64(a.words[i]) * scale))
			released := a.words[i] - newW
			if released > 0 {
				s.free[a.stages[i]] += released
				a.words[i] = newW
				s.opCount += int64(released / s.cfg.Granularity * 4)
			}
		}
	}
	// Recompaction pass: every resident allocation's units are re-walked.
	for _, a := range s.allocs {
		for _, w := range a.words {
			s.opCount += int64(w / s.cfg.Granularity)
		}
	}
	return s.tryPlace(req, need)
}

func (s *Switch) stagesByFreeDesc() []int {
	idx := make([]int, s.cfg.Stages)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.free[idx[a]] > s.free[idx[b]] })
	return idx
}

func (s *Switch) delay() time.Duration {
	// Baseline solver setup cost plus per-operation cost.
	return 3*time.Millisecond + time.Duration(s.opCount)*s.cfg.PerUnitOpCost
}

// MemoryUtilization returns the fraction of total memory held by programs.
func (s *Switch) MemoryUtilization() float64 {
	total := s.cfg.Stages * s.cfg.MemoryWords
	free := 0
	for _, f := range s.free {
		free += f
	}
	return 1 - float64(free)/float64(total)
}

// UpdateDelay returns the published update delays for the three programs
// ActiveRMT's artifact supports (Table 1's starred column).
func UpdateDelay(program string) (time.Duration, bool) {
	switch program {
	case "cache":
		return 194300 * time.Microsecond, true
	case "lb":
		return 225460 * time.Microsecond, true
	case "hh":
		return 228700 * time.Microsecond, true
	}
	return 0, false
}
