//go:build linux || darwin

package tensor

import (
	"fmt"
	"math"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// TestGemvBatchStopsAtLastWeightRow places the weight matrix so that
// its last element is the last float before a PROT_NONE page — where a
// NewParam or .djw mapping may end — and runs the tile over it. A
// kernel that read one byte past the last weight row would fault.
func TestGemvBatchStopsAtLastWeightRow(t *testing.T) {
	page := syscall.Getpagesize()
	for name, asm := range tileImpls() {
		for _, shape := range [][2]int{{8, 13}, {7, 16}, {5, 3}} {
			m, n := shape[0], shape[1]
			mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
			if err != nil {
				t.Fatalf("mmap: %v", err)
			}
			if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
				t.Fatalf("mprotect: %v", err)
			}
			a := unsafe.Slice((*float32)(unsafe.Pointer(&mem[page-4*m*n])), m*n)
			NewRNG(uint64(m*n)).FillNorm(a, 0, 1)
			const batch = 9
			x := make([]float32, batch*n)
			NewRNG(7).FillNorm(x, 0, 1)
			want := perSampleGemv(m, n, batch, a, x, make([]float32, m))
			for _, workers := range []int{1, 3} {
				y := make([]float32, batch*m)
				if err := runNoFault(func() {
					gemvBatch(asm, workers, m, n, batch, a, x, y, make([]float32, PanelLen(batch, n)))
				}); err != nil {
					t.Fatalf("%s m=%d n=%d workers=%d: %v", name, m, n, workers, err)
				}
				for i := range y {
					if math.Float32bits(y[i]) != math.Float32bits(want[i]) {
						t.Fatalf("%s m=%d n=%d workers=%d: y[%d] = %v, per-sample Gemv %v", name, m, n, workers, i, y[i], want[i])
					}
				}
			}
			if err := syscall.Munmap(mem); err != nil {
				t.Fatalf("munmap: %v", err)
			}
		}
	}
}

// runNoFault runs f with memory faults turned into panics, and returns
// the fault as an error instead of crashing the test binary. Faults in
// goroutines f starts still crash it, which fails the test as well.
func runNoFault(f func()) (err error) {
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	f()
	return nil
}
