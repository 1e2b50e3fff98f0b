package pkt

import (
	"reflect"
	"testing"
)

// FuzzPktParse drives Parse — what the inject verb runs on frame bytes
// from the wire — with arbitrary input. Properties: it never panics, and
// an accepted packet marshals back to a frame of the input's length that
// parses to the same packet.
func FuzzPktParse(f *testing.F) {
	flow := sampleFlow()
	udp := flow
	udp.Proto = ProtoUDP
	f.Add(NewTCP(flow, 0x12, 64).Marshal())
	f.Add(NewUDP(udp, 128).Marshal())
	f.Add(NewNC(udp, 1, 0x1234_5678_9abc, 7).Marshal())
	f.Add(NewCalc(udp, 2, 40, 2).Marshal())
	recirc := NewUDP(udp, 96)
	recirc.Shim = &RecircShim{HAR: 1, SAR: 2, MAR: 3, ProgramID: 4, BranchID: 5, RecircID: 1}
	f.Add(recirc.Marshal())
	f.Add([]byte{})
	f.Add(make([]byte, 13))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		out := p.Marshal()
		if len(out) != len(data) {
			t.Fatalf("marshal of a %d-byte frame is %d bytes", len(data), len(out))
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("marshaled packet does not re-parse: %v", err)
		}
		if !reflect.DeepEqual(again, p) {
			t.Fatalf("round trip changed the packet:\n got %+v\nwant %+v", again, p)
		}
	})
}
