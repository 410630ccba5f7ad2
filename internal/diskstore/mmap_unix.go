//go:build unix

package diskstore

import (
	"os"
	"syscall"
)

// mapFile maps the file read-only. The mapping outlives the *os.File — the
// kernel keeps the pages backed until unmap — so Open can close the file
// descriptor immediately. Queries touching a cold page fault it in from
// disk; the OS page cache keeps the hot working set resident.
func mapFile(f *os.File, size int64) (data []byte, unmap func() error, err error) {
	if size == 0 {
		return nil, func() error { return nil }, nil
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return b, func() error { return syscall.Munmap(b) }, nil
}
