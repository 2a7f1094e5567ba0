//go:build linux || darwin

package tensor

import "testing"

// TestGemmPackedStopsAtOperandEnds places the filter matrix A, the
// packed panels and C each so that their last element is the last float
// before a PROT_NONE page — A may be a conv filter at the end of a
// NewParam or .djw mapping — and runs both tiles over full tiles and
// fringes. A kernel that read or wrote one byte past any of them would
// fault.
func TestGemmPackedStopsAtOperandEnds(t *testing.T) {
	rng := NewRNG(38)
	for name, asm := range tileImpls() {
		for _, s := range [][3]int{{1, 1, 1}, {6, 16, 7}, {13, 33, 300}, {12, 32, 257}, {7, 17, 5}} {
			m, n, k := s[0], s[1], s[2]
			a0, b, bp0, rowBias, _ := gemmOperands(rng, m, n, k)
			want := make([]float32, m*n)
			Gemm(m, n, k, 1, a0, b, 0, want)
			addRowBias(m, n, want, rowBias)
			ReLU(want)
			a, bp := guardedFloats(t, len(a0)), guardedFloats(t, len(bp0))
			copy(a, a0)
			copy(bp, bp0)
			for _, workers := range []int{1, 3} {
				c := guardedFloats(t, m*n)
				if err := runNoFault(func() {
					gemmPacked(asm, workers, m, n, k, a, bp, c, EpBiasRowReLU, rowBias)
				}); err != nil {
					t.Fatalf("%s m=%d n=%d k=%d workers=%d: %v", name, m, n, k, workers, err)
				}
				if i := equalBits(c, want); i >= 0 {
					t.Fatalf("%s m=%d n=%d k=%d workers=%d: c[%d] = %v, Gemm %v", name, m, n, k, workers, i, c[i], want[i])
				}
			}
		}
	}
}
