package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQuantScaleEdgeCases(t *testing.T) {
	if QuantScale(0) != 1 {
		t.Fatalf("QuantScale(0)=%v, want 1 (degenerate all-zero tensor)", QuantScale(0))
	}
	if QuantScale(float32(math.NaN())) != 1 {
		t.Fatalf("QuantScale(NaN)=%v, want 1", QuantScale(float32(math.NaN())))
	}
	if got := QuantScale(127); got != 1 {
		t.Fatalf("QuantScale(127)=%v, want 1", got)
	}
	if got := QuantScale(254); got != 2 {
		t.Fatalf("QuantScale(254)=%v, want 2", got)
	}
}

func TestQuantizeSymmetricSaturatesAtExtremes(t *testing.T) {
	// The max-abs elements must land exactly on ±127.
	src := []float32{3.5, -3.5, 0, 1.75}
	dst := make([]int8, len(src))
	scale := QuantizeSymmetric(src, dst)
	if scale != 3.5/QuantMax {
		t.Fatalf("scale=%v, want %v", scale, 3.5/float32(QuantMax))
	}
	if dst[0] != QuantMax || dst[1] != -QuantMax {
		t.Fatalf("extremes %d,%d, want ±127", dst[0], dst[1])
	}
	if dst[2] != 0 {
		t.Fatalf("zero quantized to %d", dst[2])
	}
	// Values beyond the scale's range clamp instead of wrapping.
	over := []float32{1000, -1000}
	qo := make([]int8, 2)
	QuantizeWith(over, qo, scale)
	if qo[0] != QuantMax || qo[1] != -QuantMax {
		t.Fatalf("saturation broken: %d,%d", qo[0], qo[1])
	}
}

func TestQuantizeDegenerateInputs(t *testing.T) {
	// Empty layer: no elements, scale 1.
	if scale := QuantizeSymmetric(nil, nil); scale != 1 {
		t.Fatalf("empty scale=%v", scale)
	}
	// All-zero layer round-trips exactly.
	src := make([]float32, 9)
	dst := make([]int8, 9)
	scale := QuantizeSymmetric(src, dst)
	back := make([]float32, 9)
	Dequantize(dst, back, scale)
	for i, v := range back {
		if v != 0 {
			t.Fatalf("all-zero round trip: back[%d]=%v", i, v)
		}
	}
	// NaN elements map to 0 rather than poisoning the int domain.
	qn := make([]int8, 1)
	QuantizeWith([]float32{float32(math.NaN())}, qn, 1)
	if qn[0] != 0 {
		t.Fatalf("NaN quantized to %d", qn[0])
	}
}

func TestQuantizeRoundTripProperty(t *testing.T) {
	// |x - dequant(quant(x))| ≤ scale/2 (+ float slack) for every element
	// within range: nearest-integer rounding in the quantized domain.
	rng := NewRNG(40)
	f := func(nRaw uint8, spanRaw uint8) bool {
		n := int(nRaw%200) + 1
		span := float32(spanRaw%50) + 0.5
		src := make([]float32, n)
		rng.FillUniform(src, -span, span)
		dst := make([]int8, n)
		scale := QuantizeSymmetric(src, dst)
		back := make([]float32, n)
		Dequantize(dst, back, scale)
		limit := float64(scale)*0.5 + 1e-6
		for i := range src {
			if math.Abs(float64(src[i]-back[i])) > limit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeRoundsToNearest(t *testing.T) {
	src := []float32{0.4, 0.6, 1.5, -0.4, -0.6, -1.5, 127}
	dst := make([]int8, len(src))
	QuantizeWith(src, dst, 1)
	want := []int8{0, 1, 2, 0, -1, -2, 127}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("quant(%v)=%d, want %d", src[i], dst[i], want[i])
		}
	}
}

// int8 reference GEMM: plain triple loop over the signed quantized
// values with int32 accumulation, dequantized through the same epilogue
// helper, used to pin the packed lane kernel exactly.
func gemmInt8Naive(m, n, k int, a, b []int8, c []float32, scale float32, ep Epilogue, bias []float32) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			for kk := 0; kk < k; kk++ {
				acc += int32(a[i*k+kk]) * int32(b[kk*n+j])
			}
			c[i*n+j] = applyEp(float32(int64(acc))*scale, ep, bias, i, j)
		}
	}
}

// packInt8Operands quantizes float operands and builds the packed
// kernel inputs plus the signed matrices the naive reference uses.
func packInt8Operands(m, n, k int, af, bf []float32) (a, b []int8, pa []uint64, rowSum []int32, bp []uint8, colSum []int32, scale float32) {
	a = make([]int8, m*k)
	b = make([]int8, k*n)
	scaleA := QuantizeSymmetric(af, a)
	scaleB := QuantScale(MaxAbs(bf))
	QuantizeWith(bf, b, scaleB)
	pa = make([]uint64, PackedAInt8Len(m, k))
	rowSum = make([]int32, m)
	PackAInt8(m, k, a, pa, rowSum)
	bp = make([]uint8, PackedBInt8Len(k, n))
	colSum = make([]int32, n)
	QuantizePackBInt8(k, n, bf, scaleB, bp, colSum)
	return a, b, pa, rowSum, bp, colSum, scaleA * scaleB
}

// packedShapes cover the int8 kernel's 4×4 tiles, fringes (m, n not
// multiples of 4), single rows/columns, and long k extents.
var packedShapes = [][3]int{
	{1, 1, 1}, {4, 4, 4}, {3, 5, 7}, {5, 9, 3}, {17, 23, 31},
	{64, 64, 64}, {33, 65, 300}, {2, 257, 129}, {1, 301, 70}, {96, 121, 363},
}

func TestGemmPackedInt8MatchesNaive(t *testing.T) {
	rng := NewRNG(41)
	for _, s := range packedShapes {
		m, n, k := s[0], s[1], s[2]
		af := make([]float32, m*k)
		bf := make([]float32, k*n)
		rng.FillUniform(af, -1, 1)
		rng.FillUniform(bf, -1, 1)
		a, b, pa, rowSum, bp, colSum, scale := packInt8Operands(m, n, k, af, bf)
		_ = a
		bias := make([]float32, m+n)
		rng.FillUniform(bias, -1, 1)
		for _, ep := range []Epilogue{EpNone, EpBiasCol, EpBiasColReLU, EpBiasRow, EpBiasRowReLU} {
			got := make([]float32, m*n)
			want := make([]float32, m*n)
			GemmPackedInt8(m, n, k, pa, rowSum, bp, colSum, got, scale, ep, bias)
			gemmInt8Naive(m, n, k, a, b, want, scale, ep, bias)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("ep=%d m=%d n=%d k=%d: c[%d]=%v, naive %v (integer accumulation must be exact)",
						ep, m, n, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestQuantizePackAMatchesPackA(t *testing.T) {
	// The fused activation quantize-pack must equal quantize → pack.
	rng := NewRNG(42)
	for _, mk := range [][2]int{{1, 7}, {2, 5}, {5, 37}, {8, 64}, {33, 129}} {
		m, k := mk[0], mk[1]
		af := make([]float32, m*k)
		rng.FillUniform(af, -2, 2)
		scale := QuantScale(MaxAbs(af))

		fusedPA := make([]uint64, PackedAInt8Len(m, k))
		fusedSum := make([]int32, m)
		QuantizePackAInt8(m, k, af, scale, fusedPA, fusedSum)

		q := make([]int8, m*k)
		QuantizeWith(af, q, scale)
		pa := make([]uint64, PackedAInt8Len(m, k))
		rowSum := make([]int32, m)
		PackAInt8(m, k, q, pa, rowSum)
		for i := range pa {
			if fusedPA[i] != pa[i] {
				t.Fatalf("m=%d k=%d: pa[%d]=%x, want %x", m, k, i, fusedPA[i], pa[i])
			}
		}
		for i := range rowSum {
			if fusedSum[i] != rowSum[i] {
				t.Fatalf("m=%d k=%d: rowSum[%d]=%d, want %d", m, k, i, fusedSum[i], rowSum[i])
			}
		}
	}
}

func TestQuantizePackBMatchesQuantizeThenPack(t *testing.T) {
	// The fused im2col quantize-pack must equal quantize → transpose pack.
	rng := NewRNG(43)
	k, n := 37, 53
	bf := make([]float32, k*n)
	rng.FillUniform(bf, -2, 2)
	scale := QuantScale(MaxAbs(bf))

	fused := make([]uint8, PackedBInt8Len(k, n))
	fusedSum := make([]int32, n)
	QuantizePackBInt8(k, n, bf, scale, fused, fusedSum)

	q := make([]int8, k*n)
	QuantizeWith(bf, q, scale)
	qt := make([]int8, n*k)
	for kk := 0; kk < k; kk++ {
		for j := 0; j < n; j++ {
			qt[j*k+kk] = q[kk*n+j]
		}
	}
	packed := make([]uint8, PackedBInt8Len(k, n))
	colSum := make([]int32, n)
	PackBTInt8(k, n, qt, packed, colSum)
	for i := range fused {
		if fused[i] != packed[i] {
			t.Fatalf("packed[%d]=%d, want %d", i, fused[i], packed[i])
		}
	}
	for i := range colSum {
		if fusedSum[i] != colSum[i] {
			t.Fatalf("colSum[%d]=%d, want %d", i, fusedSum[i], colSum[i])
		}
	}
}

func TestGemmPackedInt8ParallelBitIdentical(t *testing.T) {
	rng := NewRNG(44)
	for _, s := range packedShapes {
		m, n, k := s[0], s[1], s[2]
		af := make([]float32, m*k)
		bf := make([]float32, k*n)
		rng.FillUniform(af, -1, 1)
		rng.FillUniform(bf, -1, 1)
		_, _, pa, rowSum, bp, colSum, scale := packInt8Operands(m, n, k, af, bf)
		rowBias := make([]float32, m)
		rng.FillUniform(rowBias, -1, 1)
		want := make([]float32, m*n)
		GemmPackedInt8(m, n, k, pa, rowSum, bp, colSum, want, scale, EpBiasRowReLU, rowBias)
		for _, workers := range []int{1, 2, 3, 7, 16} {
			got := make([]float32, m*n)
			GemmPackedInt8Parallel(workers, m, n, k, pa, rowSum, bp, colSum, got, scale, EpBiasRowReLU, rowBias)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("workers=%d m=%d n=%d k=%d: c[%d]=%v, serial %v", workers, m, n, k, i, got[i], want[i])
				}
			}
		}
	}
}

func TestGemmPackedInt8RejectsOverflowK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for k beyond the lane accumulation bound")
		}
	}()
	k := maxQuantK + 1
	GemmPackedInt8(1, 1, k,
		make([]uint64, PackedAInt8Len(1, k)), make([]int32, 1),
		make([]uint8, PackedBInt8Len(k, 1)), make([]int32, 1),
		make([]float32, 1), 1, EpNone, nil)
}

// BenchmarkGemmPackedInt8AlexNetConv1 is the int8 partner of
// BenchmarkGemmPacked: same AlexNet conv1 shape, weights pre-packed
// (compile-time), the im2col matrix quantize+packed per call.
func BenchmarkGemmPackedInt8AlexNetConv1(b *testing.B) {
	rng := NewRNG(45)
	af := make([]float32, alexConv1M*alexConv1K)
	bf := make([]float32, alexConv1K*alexConv1N)
	rng.FillUniform(af, -1, 1)
	rng.FillUniform(bf, -1, 1)
	q := make([]int8, len(af))
	scaleA := QuantizeSymmetric(af, q)
	pa := make([]uint64, PackedAInt8Len(alexConv1M, alexConv1K))
	rowSum := make([]int32, alexConv1M)
	PackAInt8(alexConv1M, alexConv1K, q, pa, rowSum)
	scaleB := QuantScale(MaxAbs(bf))
	bp := make([]uint8, PackedBInt8Len(alexConv1K, alexConv1N))
	colSum := make([]int32, alexConv1N)
	c := make([]float32, alexConv1M*alexConv1N)
	b.SetBytes(int64(2 * alexConv1M * alexConv1N * alexConv1K))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QuantizePackBInt8(alexConv1K, alexConv1N, bf, scaleB, bp, colSum)
		GemmPackedInt8(alexConv1M, alexConv1N, alexConv1K, pa, rowSum, bp, colSum, c, scaleA*scaleB, EpNone, nil)
	}
}

// BenchmarkGemmPackedInt8FC4096 is the FC shape (batch 32 over AlexNet
// fc7 4096×4096): weights packed once, activations quantized per call.
func BenchmarkGemmPackedInt8FC4096(b *testing.B) {
	rng := NewRNG(46)
	const batch, in, out = 32, 4096, 4096
	xf := make([]float32, batch*in)
	wf := make([]float32, out*in)
	rng.FillUniform(xf, -1, 1)
	rng.FillUniform(wf, -1, 1)
	qw := make([]int8, len(wf))
	scaleW := QuantizeSymmetric(wf, qw)
	bp := make([]uint8, PackedBInt8Len(in, out))
	colSum := make([]int32, out)
	PackBTInt8(in, out, qw, bp, colSum)
	pa := make([]uint64, PackedAInt8Len(batch, in))
	rowSum := make([]int32, batch)
	c := make([]float32, batch*out)
	bias := make([]float32, out)
	b.SetBytes(int64(2 * batch * in * out))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scaleX := QuantScale(MaxAbs(xf))
		QuantizePackAInt8(batch, in, xf, scaleX, pa, rowSum)
		GemmPackedInt8(batch, out, in, pa, rowSum, bp, colSum, c, scaleX*scaleW, EpBiasColReLU, bias)
	}
}
