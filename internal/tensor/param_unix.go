//go:build unix

package tensor

import (
	"syscall"
	"unsafe"
)

// mapsParams reports whether NewParam can place large tensors outside
// the Go heap on this build.
const mapsParams = true

// mapFloats maps n zeroed float32s of anonymous private memory and
// returns them with the function that unmaps them, or nil if the
// mapping fails. Pages are committed on first write, so a tensor whose
// data is never written (a placeholder a model file's mapping replaces)
// costs no resident memory.
func mapFloats(n int) ([]float32, func()) {
	b, err := syscall.Mmap(-1, 0, 4*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil
	}
	// Unmapping a live mapping this package made can fail only through
	// a bug, and a finalizer has no caller to report to.
	return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n), func() { _ = syscall.Munmap(b) }
}
