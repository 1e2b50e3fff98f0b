package traffic

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"p4runpro/internal/pkt"
)

// Trace files stand in for the paper's pcap workflow (tcpreplay + libpcap):
// a compact binary container of timestamped frames that can be written once
// and replayed against any number of switch configurations.
//
// Layout: an 8-byte magic+version header, a count, then per event an
// 8-byte microsecond timestamp, a 2-byte ingress port, a 2-byte frame
// length, and the frame bytes (the wire encoding of package pkt).

var traceMagic = [8]byte{'P', '4', 'R', 'P', 'T', 'R', 'C', 1}

// ErrBadTraceFile reports a malformed trace container.
var ErrBadTraceFile = errors.New("traffic: bad trace file")

// WriteTrace serializes a trace.
func WriteTrace(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(traceMagic[:]); err != nil {
		return err
	}
	var scratch [12]byte
	binary.BigEndian.PutUint64(scratch[:8], uint64(len(tr.Events)))
	if _, err := bw.Write(scratch[:8]); err != nil {
		return err
	}
	for _, ev := range tr.Events {
		frame := ev.Pkt.Marshal()
		if len(frame) > 0xFFFF {
			return fmt.Errorf("traffic: frame of %d bytes exceeds container limit", len(frame))
		}
		binary.BigEndian.PutUint64(scratch[:8], uint64(ev.AtMs*1000)) // µs
		binary.BigEndian.PutUint16(scratch[8:10], uint16(ev.Port))
		binary.BigEndian.PutUint16(scratch[10:12], uint16(len(frame)))
		if _, err := bw.Write(scratch[:]); err != nil {
			return err
		}
		if _, err := bw.Write(frame); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadTrace deserializes a trace, re-parsing every frame through the packet
// codec (so a trace written on one version fails loudly rather than
// replaying garbage).
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTraceFile, err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("%w: magic mismatch", ErrBadTraceFile)
	}
	var scratch [12]byte
	if _, err := io.ReadFull(br, scratch[:8]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTraceFile, err)
	}
	n := binary.BigEndian.Uint64(scratch[:8])
	const maxEvents = 1 << 28
	if n > maxEvents {
		return nil, fmt.Errorf("%w: %d events exceeds limit", ErrBadTraceFile, n)
	}
	// The count is unverified until the events arrive: preallocate for a
	// small trace and let append grow the rest.
	tr := &Trace{Counts: make(map[pkt.FiveTuple]int)}
	tr.Events = make([]Event, 0, min(n, 1024))
	lastAt := -1.0
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, scratch[:]); err != nil {
			return nil, fmt.Errorf("%w: event %d: %v", ErrBadTraceFile, i, err)
		}
		atMs := float64(binary.BigEndian.Uint64(scratch[:8])) / 1000
		port := int(binary.BigEndian.Uint16(scratch[8:10]))
		flen := int(binary.BigEndian.Uint16(scratch[10:12]))
		frame := make([]byte, flen)
		if _, err := io.ReadFull(br, frame); err != nil {
			return nil, fmt.Errorf("%w: event %d frame: %v", ErrBadTraceFile, i, err)
		}
		p, err := pkt.Parse(frame)
		if err != nil {
			return nil, fmt.Errorf("%w: event %d: %v", ErrBadTraceFile, i, err)
		}
		if atMs < lastAt {
			return nil, fmt.Errorf("%w: event %d out of order", ErrBadTraceFile, i)
		}
		lastAt = atMs
		tr.Events = append(tr.Events, Event{AtMs: atMs, Pkt: p, Port: port})
		tr.Counts[p.FiveTuple()]++
	}
	return tr, nil
}
