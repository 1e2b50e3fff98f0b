package hashing

import "fmt"

// MaskFor returns the mask selecting log2(size) low bits, for a virtual
// memory block of the given power-of-two size. It panics if size is not a
// power of two or exceeds the unit's output space; the compiler validates
// sizes before reaching the data plane.
func (u *Unit) MaskFor(size uint32) uint32 {
	if size == 0 || size&(size-1) != 0 {
		panic(fmt.Sprintf("hashing: virtual memory size %d is not a power of two", size))
	}
	if u.Width < 32 && uint64(size) > 1<<uint(u.Width) {
		panic(fmt.Sprintf("hashing: size %d exceeds %d-bit hash output space", size, u.Width))
	}
	return size - 1
}

// Algorithm returns the configured algorithm name.
func (u *Unit) Algorithm() string { return u.naming }
