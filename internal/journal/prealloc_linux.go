//go:build linux

package journal

import (
	"os"
	"syscall"
)

// preallocate gives f zero-filled blocks up to size bytes, so writes below
// size neither allocate nor grow the file.
func preallocate(f *os.File, size int64) error {
	return syscall.Fallocate(int(f.Fd()), 0, 0, size)
}

// datasync makes f's data durable with the metadata needed to read it back,
// leaving its timestamps alone.
func datasync(f *os.File) error {
	for {
		if err := syscall.Fdatasync(int(f.Fd())); err != syscall.EINTR {
			return err
		}
	}
}
