//go:build !purego

package tensor

// useAVX2 reports whether the CPU and the operating system support the
// AVX2 tile: CPUID must list AVX and AVX2, and XGETBV must show the OS
// saving the YMM register state across context switches.
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	const (
		osxsave = 1 << 27 // CPUID.1:ECX
		avx     = 1 << 28 // CPUID.1:ECX
		avx2    = 1 << 5  // CPUID.(7,0):EBX
		xmmYmm  = 0x6     // XCR0: SSE and AVX state enabled
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&xmmYmm != xmmYmm {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

// tile4x8 runs the AVX2 kernel over batchRows consecutive weight rows
// of w (n floats each) and one panel, storing the 4×8 sums into acc.
func tile4x8(w []float32, n int, panel []float32, acc *[batchRows * batchLanes]float32) {
	_ = w[batchRows*n-1]
	_ = panel[batchLanes*n-1]
	tile4x8AVX2(&w[0], n, &panel[0], acc)
}

// tile4x8AVX2 is implemented in gemvbatch_amd64.s. Lane l of row i is
// formed exactly as tileGo forms acc[i*8+l].
//
//go:noescape
func tile4x8AVX2(w *float32, n int, x *float32, acc *[batchRows * batchLanes]float32)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
