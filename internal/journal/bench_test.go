package journal

import (
	"strings"
	"testing"
)

// BenchmarkAppendSync is the journal's append layer on its own: one writer
// appends 924-byte frames (the journal.bytes_per_deploy the fill_drain
// workload measures) under SyncAlways, so each op is one write and one
// sync of the active segment.
func BenchmarkAppendSync(b *testing.B) {
	j, _, err := Open(b.TempDir(), Options{Sync: SyncAlways})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	rec := Record{Op: OpDeploy}
	frame, err := EncodeRecord(rec)
	if err != nil {
		b.Fatal(err)
	}
	rec.Source = strings.Repeat("x", 924-len(frame))
	b.SetBytes(924)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
}
