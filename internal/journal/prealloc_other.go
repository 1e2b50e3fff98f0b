//go:build !linux

package journal

import "os"

// preallocate does nothing here: writes grow the segment as they land.
func preallocate(*os.File, int64) error { return nil }

// datasync is a full fsync here.
func datasync(f *os.File) error { return f.Sync() }
