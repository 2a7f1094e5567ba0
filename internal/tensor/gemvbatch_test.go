package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// tileImpls names the tile implementations this build can run: the
// portable twin always, the AVX2 kernel where the CPU has it.
func tileImpls() map[string]bool {
	impls := map[string]bool{"twin": false}
	if useAVX2 {
		impls["avx2"] = true
	}
	return impls
}

// perSampleGemv is the reference GemvBatch must match: one Gemv per
// sample, then the FC bias epilogue.
func perSampleGemv(m, n, batch int, a, x, bias []float32) []float32 {
	y := make([]float32, batch*m)
	for b := 0; b < batch; b++ {
		Gemv(m, n, 1, a, x[b*n:(b+1)*n], 0, y[b*m:(b+1)*m])
	}
	AddBias(batch, m, y, bias)
	return y
}

// TestGemvBatchMatchesGemv: the tile is bit-identical to a per-sample
// Gemv after the bias epilogue, across partial and full panels (batch
// 1–17, so 8 and 9 straddle a panel edge), every In mod 4 (the scalar
// tail) and Out mod 4 (the one-row path), and 1–3 workers, for the
// AVX2 kernel and its portable twin alike. y and the panel scratch
// start as NaN: a kernel that read either would poison its result.
func TestGemvBatchMatchesGemv(t *testing.T) {
	rng := NewRNG(41)
	for name, asm := range tileImpls() {
		for _, n := range []int{1, 2, 3, 4, 13, 14, 15, 64, 67} {
			for _, m := range []int{1, 3, 4, 6, 9, 12, 15} {
				a := make([]float32, m*n)
				bias := make([]float32, m)
				rng.FillNorm(a, 0, 1)
				rng.FillNorm(bias, 0, 1)
				for batch := 1; batch <= 17; batch++ {
					x := make([]float32, batch*n)
					rng.FillNorm(x, 0, 3)
					want := perSampleGemv(m, n, batch, a, x, bias)
					for _, workers := range []int{1, 2, 3} {
						y := make([]float32, batch*m)
						panels := make([]float32, PanelLen(batch, n))
						fillNaN(y)
						fillNaN(panels)
						gemvBatch(asm, workers, m, n, batch, a, x, y, panels)
						AddBias(batch, m, y, bias)
						for i := range y {
							if math.Float32bits(y[i]) != math.Float32bits(want[i]) {
								t.Fatalf("%s m=%d n=%d batch=%d workers=%d: y[%d] = %v (%#x), per-sample Gemv %v (%#x)",
									name, m, n, batch, workers, i, y[i], math.Float32bits(y[i]), want[i], math.Float32bits(want[i]))
							}
						}
					}
				}
			}
		}
	}
}

func fillNaN(x []float32) {
	for i := range x {
		x[i] = float32(math.NaN())
	}
}

// TestGemvBatchZeroAllocs: the serial path, the one plans run with
// Workers ≤ 1, allocates nothing once the caller owns the scratch.
func TestGemvBatchZeroAllocs(t *testing.T) {
	const m, n, batch = 13, 37, 10
	a, x, y := make([]float32, m*n), make([]float32, batch*n), make([]float32, batch*m)
	panels := make([]float32, PanelLen(batch, n))
	if allocs := testing.AllocsPerRun(20, func() { GemvBatch(1, m, n, batch, a, x, y, panels) }); allocs != 0 {
		t.Fatalf("%.1f allocs per serial GemvBatch, want 0", allocs)
	}
}

// TestGemvBetaZeroIgnoresStaleY: with beta == 0 a stale Inf or NaN in
// y must not reach the result (0·Inf is NaN).
func TestGemvBetaZeroIgnoresStaleY(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5, 6}
	x := []float32{1, 1, 1}
	for _, stale := range []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())} {
		y := []float32{stale, stale}
		Gemv(2, 3, 1, a, x, 0, y)
		if y[0] != 6 || y[1] != 15 {
			t.Errorf("stale y %v: got %v, want [6 15]", stale, y)
		}
	}
}

// BenchmarkGemvBatch compares one batched call with per-sample Gemv on
// a weight matrix far larger than the last-level cache (the Kaldi
// hidden layers' 2048×2048 shape stacked eight deep, 128 MiB).
func BenchmarkGemvBatch(b *testing.B) {
	const m, n = 8 * 2048, 2048
	w := NewParam(m, n) // kept reachable below: its finalizer unmaps a
	a := w.Data()
	NewRNG(1).FillNorm(a, 0, 1)
	for _, batch := range []int{1, 10} {
		x := make([]float32, batch*n)
		y := make([]float32, batch*m)
		panels := make([]float32, PanelLen(batch, n))
		NewRNG(2).FillNorm(x, 0, 1)
		b.Run(fmt.Sprintf("tile/batch=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				GemvBatch(1, m, n, batch, a, x, y, panels)
			}
		})
		b.Run(fmt.Sprintf("gemv/batch=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for s := 0; s < batch; s++ {
					Gemv(m, n, 1, a, x[s*n:(s+1)*n], 0, y[s*m:(s+1)*m])
				}
			}
		})
	}
	runtime.KeepAlive(w)
}
