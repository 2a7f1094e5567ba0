//go:build !unix

package tensor

// mapsParams reports whether NewParam can place large tensors outside
// the Go heap on this build.
const mapsParams = false

// mapFloats is unavailable without syscall.Mmap: NewParam falls back to
// the heap.
func mapFloats(n int) ([]float32, func()) { return nil, nil }
