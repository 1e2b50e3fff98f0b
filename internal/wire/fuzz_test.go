package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// FuzzProtoParse drives ParseRequest — the server's first touch of
// untrusted connection bytes — with arbitrary input. Properties: it never
// panics, an accepted request always carries a method, and an accepted
// request survives a marshal/parse round trip with identical ID, method,
// and params.
func FuzzProtoParse(f *testing.F) {
	// Valid request lines for a spread of verbs.
	f.Add([]byte(`{"id":1,"method":"deploy","params":{"source":"program x() {}"}}`))
	f.Add([]byte(`{"id":2,"method":"mem.write","params":{"program":"hh","mem":"cnt","addr":3,"value":41}}`))
	f.Add([]byte(`{"id":3,"method":"snapshot"}`))
	f.Add([]byte(`{"id":4,"method":"metrics","params":{"format":"json"}}`))
	f.Add([]byte(`{"id":-9223372036854775808,"method":"status"}`))
	// Torn / malformed lines a crashed or hostile client might send.
	f.Add([]byte(`{"id":1,"method":"dep`))
	f.Add([]byte(`{"id":1}`))
	f.Add([]byte(`{"method":""}`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"id":"not a number","method":"deploy"}`))
	f.Add([]byte("{\"id\":1,\"method\":\"x\"}\n{\"id\":2,\"method\":\"y\"}"))

	f.Fuzz(func(t *testing.T, line []byte) {
		req, err := ParseRequest(line)
		if err != nil {
			return
		}
		if req.Method == "" {
			t.Fatal("accepted request with empty method")
		}
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not marshal: %v", err)
		}
		again, err := ParseRequest(out)
		if err != nil {
			t.Fatalf("marshaled request does not re-parse: %v", err)
		}
		if again.ID != req.ID || again.Method != req.Method || string(again.Params) != string(req.Params) {
			t.Fatalf("round trip changed request: %+v != %+v", again, req)
		}
	})
}

// FuzzFrameDecode drives DecodeFrame — the binary framing layer's entry
// point for untrusted bytes. Properties: it never panics, every failure is
// one of the typed sentinels (or io.EOF on empty input), and an accepted
// frame re-encodes byte-identically to the prefix it consumed.
func FuzzFrameDecode(f *testing.F) {
	f.Add(AppendFrame(nil, []byte("hello frames")))
	f.Add(AppendFrame(nil, nil))
	f.Add(AppendFrame(AppendFrame(nil, []byte("a")), []byte("b")))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3}) // short header
	trunc := AppendFrame(nil, []byte("truncated payload"))
	f.Add(trunc[:len(trunc)-5])
	corrupt := AppendFrame(nil, []byte("bad crc"))
	corrupt[4] ^= 0xff
	f.Add(corrupt)
	huge := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(huge, 1<<31)
	f.Add(huge)
	// A length word with its high bit set and a CRC valid over the bytes
	// that follow still announces a frame of over 2 GiB: refused before
	// any payload byte is trusted.
	body := append(bytes.Repeat([]byte{1}, 24), "hello"...)
	flagged := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(flagged, uint32(len(body))|1<<31)
	binary.LittleEndian.PutUint32(flagged[4:], crc32.Checksum(body, frameCRC))
	flagged = append(flagged, body...)
	if _, _, err := DecodeFrame(flagged, 1<<20); !errors.Is(err, ErrFrameTooLarge) {
		f.Fatalf("high-bit frame err = %v, want ErrFrameTooLarge", err)
	}
	f.Add(flagged)

	f.Fuzz(func(t *testing.T, b []byte) {
		payload, n, err := DecodeFrame(b, 1<<20)
		if err != nil {
			switch {
			case errors.Is(err, io.EOF),
				errors.Is(err, ErrFrameCorrupt),
				errors.Is(err, ErrFrameTooLarge):
			default:
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if n < frameHeader || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if got := AppendFrame(nil, payload); !bytes.Equal(got, b[:n]) {
			t.Fatalf("re-encode differs from consumed prefix (%d bytes)", n)
		}
	})
}
