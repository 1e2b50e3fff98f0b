// Binary framing for bulk payloads. The control protocol is line-delimited
// JSON, which is the right shape for lifecycle verbs but pays per-byte
// encoding costs that dominate large memory transfers. Bulk verbs
// (mem.writebatch, mem.readstream) therefore carry their payloads in
// length-prefixed binary frames that trail the JSON request or response
// line on the same connection:
//
//	[4B little-endian payload length][4B CRC32-Castagnoli of payload][payload]
//
// The JSON line announces how many frames follow through the "frames"
// field, so a peer that does not understand a bulk verb never misparses
// the stream — it reads (and may discard) exactly the announced frames.
// Frame payloads are bounded; an oversized frame is rejected with the
// typed ErrFrameTooLarge before any payload byte is read, and a corrupted
// frame with ErrFrameCorrupt.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame layout and limits.
const (
	frameHeader = 8 // 4B payload length + 4B CRC32-Castagnoli
	// DefaultMaxFrameBytes bounds one binary frame's payload (matches the
	// request-line bound: a frame is a request-sized object).
	DefaultMaxFrameBytes = 16 << 20
	// MaxFramesPerMessage bounds how many frames one request or response
	// may announce, so a malicious "frames" count cannot pin a connection.
	MaxFramesPerMessage = 1 << 10
)

// Typed frame errors. ErrFrameTooLarge and ErrBadFrameCount are protocol
// violations that close the connection after being reported; ErrFrameCorrupt
// reports a CRC or truncation failure.
var (
	ErrFrameTooLarge = errors.New("wire: binary frame exceeds size limit")
	ErrFrameCorrupt  = errors.New("wire: corrupt binary frame")
	ErrBadFrameCount = errors.New("wire: frame count out of range")
)

var frameCRC = crc32.MakeTable(crc32.Castagnoli)

// AppendFrame appends one framed payload to dst and returns the extended
// slice.
func AppendFrame(dst, payload []byte) []byte {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, frameCRC))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// ReadFrame reads one frame from r, rejecting payloads larger than max
// (DefaultMaxFrameBytes when max <= 0) before reading them.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrameBytes
	}
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if int64(n) > int64(max) {
		return nil, fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated payload: %v", ErrFrameCorrupt, err)
	}
	if crc32.Checksum(payload, frameCRC) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrFrameCorrupt)
	}
	return payload, nil
}

// DecodeFrame decodes one frame from the head of b, returning the payload
// and bytes consumed. io.EOF reports empty input; ErrFrameCorrupt a
// truncated or CRC-failing frame; ErrFrameTooLarge an over-bound length.
// This is the fuzz target's entry point (FuzzFrameDecode).
func DecodeFrame(b []byte, max int) ([]byte, int, error) {
	if max <= 0 {
		max = DefaultMaxFrameBytes
	}
	if len(b) == 0 {
		return nil, 0, io.EOF
	}
	if len(b) < frameHeader {
		return nil, 0, fmt.Errorf("%w: short header", ErrFrameCorrupt)
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	if int64(n) > int64(max) {
		return nil, 0, fmt.Errorf("%w: %d > %d bytes", ErrFrameTooLarge, n, max)
	}
	if uint32(len(b)-frameHeader) < n {
		return nil, 0, fmt.Errorf("%w: truncated payload", ErrFrameCorrupt)
	}
	payload := b[frameHeader : frameHeader+int(n)]
	if crc32.Checksum(payload, frameCRC) != binary.LittleEndian.Uint32(b[4:8]) {
		return nil, 0, fmt.Errorf("%w: CRC mismatch", ErrFrameCorrupt)
	}
	return payload, frameHeader + int(n), nil
}

// EncodeU32s packs values as little-endian uint32s — the payload format of
// mem.readstream chunks.
func EncodeU32s(vals []uint32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], v)
	}
	return out
}

// DecodeU32s unpacks a little-endian uint32 payload. The payload length
// must be a multiple of 4.
func DecodeU32s(payload []byte) ([]uint32, error) {
	if len(payload)%4 != 0 {
		return nil, fmt.Errorf("%w: %d bytes is not a uint32 vector", ErrFrameCorrupt, len(payload))
	}
	out := make([]uint32, len(payload)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(payload[4*i:])
	}
	return out, nil
}

// EncodeWritePairs packs (addr, value) pairs as interleaved little-endian
// uint32s — the payload format of mem.writebatch's one frame.
func EncodeWritePairs(writes []MemWriteEntry) []byte {
	out := make([]byte, 8*len(writes))
	for i, w := range writes {
		binary.LittleEndian.PutUint32(out[8*i:], w.Addr)
		binary.LittleEndian.PutUint32(out[8*i+4:], w.Value)
	}
	return out
}

// DecodeWritePairs unpacks an interleaved (addr, value) payload. The
// payload length must be a multiple of 8.
func DecodeWritePairs(payload []byte) ([]MemWriteEntry, error) {
	if len(payload)%8 != 0 {
		return nil, fmt.Errorf("%w: %d bytes is not an (addr,value) vector", ErrFrameCorrupt, len(payload))
	}
	out := make([]MemWriteEntry, len(payload)/8)
	for i := range out {
		out[i].Addr = binary.LittleEndian.Uint32(payload[8*i:])
		out[i].Value = binary.LittleEndian.Uint32(payload[8*i+4:])
	}
	return out, nil
}
