package hashing

import "encoding/binary"

// Unit models one hardware hash unit: a fixed CRC algorithm with a fixed
// native output width. The physical output width cannot change at runtime;
// P4runpro adapts it to a program's virtual memory size with the mask step
// of its address translation (paper §4.1.2), which this type exposes via
// SumMasked.
type Unit struct {
	ID     int
	Width  int // native output width in bits (16 or 32)
	crc16  *CRC16
	crc32  *CRC32
	naming string
}

// NewUnit16 builds a 16-bit hash unit running the given CRC algorithm.
func NewUnit16(id int, p CRC16Params) *Unit {
	return &Unit{ID: id, Width: 16, crc16: NewCRC16(p), naming: p.Name}
}

// NewUnit32 builds a 32-bit hash unit running CRC-32/IEEE.
func NewUnit32(id int) *Unit {
	return &Unit{ID: id, Width: 32, crc32: NewCRC32(), naming: "crc_32_ieee"}
}

// Sum hashes data at the unit's native width.
func (u *Unit) Sum(data []byte) uint32 {
	if u.crc32 != nil {
		return u.crc32.Sum(data)
	}
	return uint32(u.crc16.Sum(data))
}

// SumMasked hashes data and applies the mask step: the native-width output
// is truncated with mask so it addresses a virtual memory block whose size
// is a power of two no larger than the native output space.
func (u *Unit) SumMasked(data []byte, mask uint32) uint32 {
	return u.Sum(data) & mask
}

// SumWord hashes a single 32-bit register value (the HASH primitive:
// har = hash(har)).
func (u *Unit) SumWord(v uint32) uint32 {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return u.Sum(b[:])
}
