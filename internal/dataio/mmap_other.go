//go:build !unix

package dataio

import (
	"errors"
	"os"
)

const mmapSupported = false

func mapFile(f *os.File, size int64) ([]byte, func() error, error) {
	return nil, nil, errors.New("dataio: mmap unsupported on this platform")
}
