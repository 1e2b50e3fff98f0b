package rmt

import (
	"fmt"
	"sync/atomic"
)

// SALUOp selects the stateful-ALU operation performed against one memory
// word. The set mirrors the paper's memory primitives (Table 3): each
// operation combines the bucket value and the sar operand, writes the bucket
// and/or returns a result, in a single stage visit.
type SALUOp int

// SALU operations.
const (
	SALURead  SALUOp = iota // result = mem
	SALUWrite               // mem = operand
	SALUAdd                 // mem += operand; result = new mem
	SALUSub                 // mem -= operand; result = new mem
	SALUAnd                 // mem &= operand; result = new mem
	SALUOr                  // result = old mem; mem |= operand
	SALUMax                 // mem = max(mem, operand); result = old mem
)

func (op SALUOp) String() string {
	switch op {
	case SALURead:
		return "read"
	case SALUWrite:
		return "write"
	case SALUAdd:
		return "add"
	case SALUSub:
		return "sub"
	case SALUAnd:
		return "and"
	case SALUOr:
		return "or"
	case SALUMax:
		return "max"
	}
	return fmt.Sprintf("salu(%d)", int(op))
}

// RegisterArray is one stage's stateful memory: MemoryWords 32-bit buckets
// behind a stateful ALU. The hardware permits exactly one access per packet
// per stage; Switch enforces that via the PHV's per-pass access set.
//
// Every word is operated on atomically (plain atomics for read/write/add,
// CAS loops for the read-modify-write ops), so concurrent packets touching
// the same bucket are linearized per word without any lock — mirroring the
// hardware, where each SALU access is a single-cycle atomic visit. Multi-word
// operations (ResetRange, Snapshot) are atomic per word, not across the
// range, exactly like a control-plane read racing line-rate traffic.
//
// The words are allocated on the first SALU access or control-plane write,
// so a stage whose memory no program uses costs no host memory: the default
// configuration provisions 24 stages of 65,536 words (6 MB per switch), and
// a switch with few stateful programs touches few of them. Until then every
// word reads as zero.
type RegisterArray struct {
	gress Gress
	stage int
	size  int
	words atomic.Pointer[[]uint32] // nil until first used
}

// NewRegisterArray creates a zeroed array.
func NewRegisterArray(g Gress, stage, words int) *RegisterArray {
	return &RegisterArray{gress: g, stage: stage, size: words}
}

// Size returns the word count.
func (r *RegisterArray) Size() int { return r.size }

// mem returns the words, allocating them on first use. Racing first uses
// agree on one allocation.
func (r *RegisterArray) mem() []uint32 {
	if w := r.words.Load(); w != nil {
		return *w
	}
	w := make([]uint32, r.size)
	if r.words.CompareAndSwap(nil, &w) {
		return w
	}
	return *r.words.Load()
}

// read returns the words, or nil while none has been written.
func (r *RegisterArray) read() []uint32 {
	if w := r.words.Load(); w != nil {
		return *w
	}
	return nil
}

// Execute performs one SALU operation at a physical address. Addresses out
// of range return an error: the hardware would silently wrap, but in the
// simulator an out-of-range physical address always indicates an address-
// translation bug and must surface.
func (r *RegisterArray) Execute(op SALUOp, addr uint32, operand uint32) (uint32, error) {
	if int(addr) >= r.size {
		return 0, fmt.Errorf("rmt: %s stage %d: physical address %d out of range [0,%d)", r.gress, r.stage, addr, r.size)
	}
	w := &r.mem()[addr]
	switch op {
	case SALURead:
		return atomic.LoadUint32(w), nil
	case SALUWrite:
		atomic.StoreUint32(w, operand)
		return operand, nil
	case SALUAdd:
		return atomic.AddUint32(w, operand), nil
	case SALUSub:
		return atomic.AddUint32(w, ^operand+1), nil
	case SALUAnd:
		for {
			old := atomic.LoadUint32(w)
			if atomic.CompareAndSwapUint32(w, old, old&operand) {
				return old & operand, nil
			}
		}
	case SALUOr:
		for {
			old := atomic.LoadUint32(w)
			if atomic.CompareAndSwapUint32(w, old, old|operand) {
				return old, nil
			}
		}
	case SALUMax:
		for {
			old := atomic.LoadUint32(w)
			if operand <= old {
				return old, nil
			}
			if atomic.CompareAndSwapUint32(w, old, operand) {
				return old, nil
			}
		}
	default:
		return 0, fmt.Errorf("rmt: unknown SALU op %d", int(op))
	}
}

// Peek reads a word without modeling a packet access (control-plane read).
func (r *RegisterArray) Peek(addr uint32) (uint32, error) {
	if int(addr) >= r.size {
		return 0, fmt.Errorf("rmt: peek address %d out of range", addr)
	}
	if w := r.read(); w != nil {
		return atomic.LoadUint32(&w[addr]), nil
	}
	return 0, nil
}

// Poke writes a word from the control plane.
func (r *RegisterArray) Poke(addr uint32, v uint32) error {
	if int(addr) >= r.size {
		return fmt.Errorf("rmt: poke address %d out of range", addr)
	}
	atomic.StoreUint32(&r.mem()[addr], v)
	return nil
}

// ResetRange zeroes [start, start+n), used when the resource manager locks
// and resets a terminated program's memory (paper §4.3 "Consistent Update").
// Atomic per word; concurrent packets may observe a partially reset range,
// as on hardware, where the reset is a sequence of per-bucket writes.
func (r *RegisterArray) ResetRange(start, n uint32) error {
	if int(start)+int(n) > r.size {
		return fmt.Errorf("rmt: reset range [%d,%d) out of bounds", start, start+n)
	}
	w := r.read()
	if w == nil {
		return nil // never written: already zero
	}
	for i := start; i < start+n; i++ {
		atomic.StoreUint32(&w[i], 0)
	}
	return nil
}

// Snapshot copies [start, start+n) for control-plane monitoring. Atomic per
// word, not across the range.
func (r *RegisterArray) Snapshot(start, n uint32) ([]uint32, error) {
	if int(start)+int(n) > r.size {
		return nil, fmt.Errorf("rmt: snapshot range [%d,%d) out of bounds", start, start+n)
	}
	out := make([]uint32, n)
	if w := r.read(); w != nil {
		for i := uint32(0); i < n; i++ {
			out[i] = atomic.LoadUint32(&w[start+i])
		}
	}
	return out, nil
}
