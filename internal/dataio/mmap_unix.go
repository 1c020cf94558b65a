//go:build unix

package dataio

import (
	"os"
	"syscall"
)

const mmapSupported = true

// mapFile maps the whole file read-only and private.
func mapFile(f *os.File, size int64) ([]byte, func() error, error) {
	b, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, err
	}
	return b, func() error { return syscall.Munmap(b) }, nil
}
