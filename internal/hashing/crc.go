// Package hashing implements the hash units of the simulated RMT pipeline.
//
// Tofino's hash units compute CRCs over selected PHV fields. The paper's
// heavy-hitter case study (§6.4) uses four standard CRC-16 algorithms —
// crc_16_buypass, crc_16_mcrf4xx, crc_aug_ccitt, and crc_16_dds_110 — to
// index the rows of a count-min sketch and a Bloom filter, relying on the
// property that truncating (masking) a uniform hash preserves the collision
// behaviour of a natively narrower hash. This package provides a generic
// table-driven CRC-16 engine parameterized the rocksoft way (polynomial,
// init, reflect-in/out, xorout), the four named algorithms, and a CRC-32 for
// wider outputs.
package hashing

import "sync"

// CRC16Params describes a CRC-16 algorithm in Rocksoft notation.
type CRC16Params struct {
	Name   string
	Poly   uint16
	Init   uint16
	RefIn  bool
	RefOut bool
	XorOut uint16
}

// The four CRC-16 algorithms used by the paper's prototype, plus CCITT-FALSE
// as a spare. Parameters follow the canonical CRC catalogue.
var (
	CRC16Buypass    = CRC16Params{Name: "crc_16_buypass", Poly: 0x8005, Init: 0x0000}
	CRC16MCRF4XX    = CRC16Params{Name: "crc_16_mcrf4xx", Poly: 0x1021, Init: 0xFFFF, RefIn: true, RefOut: true}
	CRC16AugCCITT   = CRC16Params{Name: "crc_aug_ccitt", Poly: 0x1021, Init: 0x1D0F}
	CRC16DDS110     = CRC16Params{Name: "crc_16_dds_110", Poly: 0x8005, Init: 0x800D}
	CRC16CCITTFalse = CRC16Params{Name: "crc_16_ccitt_false", Poly: 0x1021, Init: 0xFFFF}
)

// StandardCRC16 lists the algorithms assigned round-robin to hash units.
var StandardCRC16 = []CRC16Params{CRC16Buypass, CRC16MCRF4XX, CRC16AugCCITT, CRC16DDS110}

// CRC16 is a table-driven CRC-16 engine.
type CRC16 struct {
	params CRC16Params
	table  [256]uint16
}

var crc16Cache sync.Map // CRC16Params -> *CRC16

// NewCRC16 returns the engine for the given parameters, building its lookup
// table once per parameter set: engines are immutable, so every hash unit
// running one algorithm shares one.
func NewCRC16(p CRC16Params) *CRC16 {
	if c, ok := crc16Cache.Load(p); ok {
		return c.(*CRC16)
	}
	c := &CRC16{params: p}
	for i := 0; i < 256; i++ {
		var crc uint16
		if p.RefIn {
			crc = uint16(i)
			for b := 0; b < 8; b++ {
				if crc&1 != 0 {
					crc = crc>>1 ^ reflect16(p.Poly)
				} else {
					crc >>= 1
				}
			}
		} else {
			crc = uint16(i) << 8
			for b := 0; b < 8; b++ {
				if crc&0x8000 != 0 {
					crc = crc<<1 ^ p.Poly
				} else {
					crc <<= 1
				}
			}
		}
		c.table[i] = crc
	}
	actual, _ := crc16Cache.LoadOrStore(p, c)
	return actual.(*CRC16)
}

// Params returns the algorithm parameters.
func (c *CRC16) Params() CRC16Params { return c.params }

// Sum computes the CRC of data.
func (c *CRC16) Sum(data []byte) uint16 {
	crc := c.params.Init
	if c.params.RefIn {
		crc = reflect16(crc) // reflected algorithms keep state reflected
		for _, b := range data {
			crc = crc>>8 ^ c.table[byte(crc)^b]
		}
		if !c.params.RefOut {
			crc = reflect16(crc)
		}
	} else {
		for _, b := range data {
			crc = crc<<8 ^ c.table[byte(crc>>8)^b]
		}
		if c.params.RefOut {
			crc = reflect16(crc)
		}
	}
	return crc ^ c.params.XorOut
}

func reflect16(v uint16) uint16 {
	var r uint16
	for i := 0; i < 16; i++ {
		if v&(1<<i) != 0 {
			r |= 1 << (15 - i)
		}
	}
	return r
}

// CRC32 is a table-driven CRC-32 (IEEE 802.3, reflected) engine used when a
// hash unit is configured for 32-bit output width.
type CRC32 struct {
	table [256]uint32
}

// NewCRC32 builds the IEEE CRC-32 table.
func NewCRC32() *CRC32 {
	c := &CRC32{}
	const poly = 0xEDB88320
	for i := 0; i < 256; i++ {
		crc := uint32(i)
		for b := 0; b < 8; b++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ poly
			} else {
				crc >>= 1
			}
		}
		c.table[i] = crc
	}
	return c
}

// Sum computes the CRC-32 of data.
func (c *CRC32) Sum(data []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range data {
		crc = crc>>8 ^ c.table[byte(crc)^b]
	}
	return ^crc
}
