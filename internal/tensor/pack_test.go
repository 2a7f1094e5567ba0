package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

// packedShapes deliberately cover tiles, fringes (m, n not multiples of
// the 4×4 microtile), single rows/columns, and k extents beyond one
// packKC block.
var packedShapes = [][3]int{
	{1, 1, 1}, {4, 4, 4}, {3, 5, 7}, {5, 9, 3}, {17, 23, 31},
	{64, 64, 64}, {33, 65, 300}, {2, 257, 129}, {1, 301, 70}, {96, 121, 363},
}

func TestPackedBLen(t *testing.T) {
	if got := PackedBLen(3, 5); got != 2*3*packNR {
		t.Fatalf("PackedBLen(3,5)=%d", got)
	}
	if got := PackedBLen(7, 4); got != 7*packNR {
		t.Fatalf("PackedBLen(7,4)=%d", got)
	}
	if got := PackedBLen(5, 0); got != 0 {
		t.Fatalf("PackedBLen(5,0)=%d", got)
	}
}

// TestIm2colPanelsMatchesIm2colPackB: writing the columns straight into
// panels leaves exactly the bits Im2col followed by PackB does, pad
// lanes included, over strides 1 and 4, padding 0 and 2, and column
// counts of every residue mod packNR. bp starts as NaN so a lane left
// unwritten shows.
func TestIm2colPanelsMatchesIm2colPackB(t *testing.T) {
	rng := NewRNG(30)
	nan := float32(math.NaN())
	for _, stride := range []int{1, 4} {
		for _, pad := range []int{0, 2} {
			residues := map[int]bool{}
			for _, kernel := range []int{1, 3} {
				for h := 3; h <= 16; h++ {
					for w := 3; w <= 16; w += 3 {
						g := ConvGeom{Channels: 3, Height: h, Width: w, KernelH: kernel, KernelW: kernel,
							StrideH: stride, StrideW: stride, PadH: pad, PadW: pad}
						k, n := 3*kernel*kernel, g.OutH()*g.OutW()
						residues[n%packNR] = true
						img := make([]float32, 3*h*w)
						rng.FillUniform(img, -1, 1)
						col := make([]float32, k*n)
						want := make([]float32, PackedBLen(k, n))
						Im2col(g, img, col)
						PackB(k, n, col, want)
						got := make([]float32, len(want))
						for i := range got {
							got[i] = nan
						}
						Im2colPanels(g, img, got)
						for i := range got {
							if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
								t.Fatalf("%+v: bp[%d]=%v, Im2col+PackB %v", g, i, got[i], want[i])
							}
						}
					}
				}
			}
			if len(residues) != packNR {
				t.Fatalf("stride %d pad %d: column counts cover residues %v, want all of 0..%d", stride, pad, residues, packNR-1)
			}
		}
	}
}

// TestGemmPackedBitIdenticalToGemm pins the central numerical contract
// of the packed backend: for finite inputs it produces exactly the bytes
// Gemm(m,n,k,1,a,b,0,c) does, because every output element accumulates
// its products one at a time in the same ascending-k order and partials
// round-trip through C at the same k-block granularity semantics.
func TestGemmPackedBitIdenticalToGemm(t *testing.T) {
	rng := NewRNG(31)
	for _, s := range packedShapes {
		m, n, k := s[0], s[1], s[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		rng.FillUniform(a, -1, 1)
		rng.FillUniform(b, -1, 1)
		// Sprinkle exact zeros so the reference kernel's av==0 skip is
		// exercised against the packed kernel's unconditional add.
		for i := 0; i < len(a); i += 7 {
			a[i] = 0
		}
		bp := make([]float32, PackedBLen(k, n))
		PackB(k, n, b, bp)
		got := make([]float32, m*n)
		rng.FillUniform(got, -9, 9) // must be overwritten
		GemmPacked(m, n, k, a, bp, got, EpNone, nil)
		want := make([]float32, m*n)
		Gemm(m, n, k, 1, a, b, 0, want)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("m=%d n=%d k=%d: c[%d]=%v, Gemm %v (must be bit-identical)", m, n, k, i, got[i], want[i])
			}
		}
	}
}

func TestGemmPackedMatchesNaive(t *testing.T) {
	rng := NewRNG(32)
	f := func(mRaw, nRaw, kRaw uint8) bool {
		m, n, k := int(mRaw%40)+1, int(nRaw%40)+1, int(kRaw%40)+1
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		rng.FillUniform(a, -2, 2)
		rng.FillUniform(b, -2, 2)
		bp := make([]float32, PackedBLen(k, n))
		PackB(k, n, b, bp)
		c1 := make([]float32, m*n)
		c2 := make([]float32, m*n)
		GemmPacked(m, n, k, a, bp, c1, EpNone, nil)
		GemmNaive(m, n, k, 1, a, b, 0, c2)
		for i := range c1 {
			if math.Abs(float64(c1[i]-c2[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestGemmPackedEpiloguesBitIdentical checks each fused epilogue against
// the unfused reference sequence: Gemm, then the bias add, then the ReLU
// clamp.
func TestGemmPackedEpiloguesBitIdentical(t *testing.T) {
	rng := NewRNG(33)
	for _, s := range packedShapes {
		m, n, k := s[0], s[1], s[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		colBias := make([]float32, n)
		rowBias := make([]float32, m)
		rng.FillUniform(a, -1, 1)
		rng.FillUniform(b, -1, 1)
		rng.FillUniform(colBias, -1, 1)
		rng.FillUniform(rowBias, -1, 1)
		bp := make([]float32, PackedBLen(k, n))
		PackB(k, n, b, bp)
		base := make([]float32, m*n)
		Gemm(m, n, k, 1, a, b, 0, base)

		cases := []struct {
			ep   Epilogue
			bias []float32
			ref  func(c []float32)
		}{
			{EpBiasCol, colBias, func(c []float32) { AddBias(m, n, c, colBias) }},
			{EpBiasColReLU, colBias, func(c []float32) { AddBiasReLU(m, n, c, colBias) }},
			{EpBiasRow, rowBias, func(c []float32) { addRowBias(m, n, c, rowBias) }},
			{EpBiasRowReLU, rowBias, func(c []float32) { addRowBias(m, n, c, rowBias); ReLU(c) }},
		}
		for _, tc := range cases {
			got := make([]float32, m*n)
			GemmPacked(m, n, k, a, bp, got, tc.ep, tc.bias)
			want := append([]float32(nil), base...)
			tc.ref(want)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("ep=%d m=%d n=%d k=%d: c[%d]=%v, unfused %v", tc.ep, m, n, k, i, got[i], want[i])
				}
			}
		}
	}
}

// addRowBias adds bias[i] to every element of row i of an m×n matrix.
func addRowBias(m, n int, c, bias []float32) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			c[i*n+j] += bias[i]
		}
	}
}

// TestGemmPackedParallelBitIdentical: every output element has one
// owner that forms it in the serial kernel's order, so the result is
// bit-identical for any worker count, the m == 1 panel split included.
func TestGemmPackedParallelBitIdentical(t *testing.T) {
	rng := NewRNG(34)
	for _, s := range packedShapes {
		m, n, k := s[0], s[1], s[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		rowBias := make([]float32, m)
		rng.FillUniform(a, -1, 1)
		rng.FillUniform(b, -1, 1)
		rng.FillUniform(rowBias, -1, 1)
		bp := make([]float32, PackedBLen(k, n))
		PackB(k, n, b, bp)
		want := make([]float32, m*n)
		GemmPacked(m, n, k, a, bp, want, EpBiasRowReLU, rowBias)
		for _, workers := range []int{1, 2, 3, 7, 16} {
			got := make([]float32, m*n)
			GemmPackedParallel(workers, m, n, k, a, bp, got, EpBiasRowReLU, rowBias)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("workers=%d m=%d n=%d k=%d: c[%d]=%v, serial %v (must be bit-identical)",
						workers, m, n, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGemmParallelBitIdenticalToSerial: the parallel panel kernel is
// bit-identical (==, not within tolerance) to the serial one on shapes
// that are not multiples of the 4-row microtile or the panel width, and
// with worker counts beyond the row count, which the split clamps.
func TestGemmParallelBitIdenticalToSerial(t *testing.T) {
	rng := NewRNG(11)
	shapes := [][3]int{{1, 1, 1}, {5, 3, 9}, {17, 31, 13}, {65, 63, 70}, {3, 257, 65}, {130, 19, 67}}
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		rng.FillUniform(a, -1, 1)
		rng.FillUniform(b, -1, 1)
		bp := make([]float32, PackedBLen(k, n))
		PackB(k, n, b, bp)
		want := make([]float32, m*n)
		GemmPacked(m, n, k, a, bp, want, EpNone, nil)
		for _, workers := range []int{1, 2, 3, 7, 16, 64} {
			got := make([]float32, m*n)
			GemmPackedParallel(workers, m, n, k, a, bp, got, EpNone, nil)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("workers=%d m=%d n=%d k=%d: c[%d]=%v, serial %v (must be bit-identical)",
						workers, m, n, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestGemmParallelProperty: the parallel panel kernel agrees with the
// triple loop on random odd shapes and worker counts.
func TestGemmParallelProperty(t *testing.T) {
	rng := NewRNG(12)
	f := func(mRaw, nRaw, kRaw, wRaw uint8) bool {
		m, n, k := int(mRaw%40)+1, int(nRaw%40)+1, int(kRaw%40)+1
		workers := int(wRaw%12) + 1
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		rng.FillUniform(a, -2, 2)
		rng.FillUniform(b, -2, 2)
		bp := make([]float32, PackedBLen(k, n))
		PackB(k, n, b, bp)
		c1 := make([]float32, m*n)
		c2 := make([]float32, m*n)
		GemmPackedParallel(workers, m, n, k, a, bp, c1, EpNone, nil)
		GemmNaive(m, n, k, 1, a, b, 0, c2)
		for i := range c1 {
			if math.Abs(float64(c1[i]-c2[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGemmPackedPanicsOnShortBuffers(t *testing.T) {
	cases := []func(){
		func() { // short A
			GemmPacked(4, 4, 4, make([]float32, 15), make([]float32, PackedBLen(4, 4)), make([]float32, 16), EpNone, nil)
		},
		func() { // short packed B
			GemmPacked(4, 4, 4, make([]float32, 16), make([]float32, 15), make([]float32, 16), EpNone, nil)
		},
		func() { // short C
			GemmPacked(4, 4, 4, make([]float32, 16), make([]float32, PackedBLen(4, 4)), make([]float32, 15), EpNone, nil)
		},
		func() { // short column bias
			GemmPacked(4, 4, 4, make([]float32, 16), make([]float32, PackedBLen(4, 4)), make([]float32, 16), EpBiasCol, make([]float32, 3))
		},
		func() { // short row bias
			GemmPacked(4, 4, 4, make([]float32, 16), make([]float32, PackedBLen(4, 4)), make([]float32, 16), EpBiasRow, make([]float32, 3))
		},
		func() { // short PackB input
			PackB(4, 4, make([]float32, 15), make([]float32, PackedBLen(4, 4)))
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

// alexConv1 is the AlexNet conv1 GEMM shape (per sample, no groups):
// OutC=96 rows, 55×55 output positions, 3·11·11 kernel taps.
const (
	alexConv1M = 96
	alexConv1N = 55 * 55
	alexConv1K = 3 * 11 * 11
)

// BenchmarkGemmAlexNetConv1 is the blocked reference kernel on the
// AlexNet conv1 shape — the ablation partner of BenchmarkGemmPacked.
func BenchmarkGemmAlexNetConv1(b *testing.B) {
	rng := NewRNG(35)
	a := make([]float32, alexConv1M*alexConv1K)
	bb := make([]float32, alexConv1K*alexConv1N)
	c := make([]float32, alexConv1M*alexConv1N)
	rng.FillUniform(a, -1, 1)
	rng.FillUniform(bb, -1, 1)
	b.SetBytes(int64(2 * alexConv1M * alexConv1N * alexConv1K * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(alexConv1M, alexConv1N, alexConv1K, 1, a, bb, 0, c)
	}
}

// BenchmarkGemmPacked measures the panel-packed kernel on the AlexNet
// conv1 shape, including a per-call PackB: the panel layout the conv
// path writes once per call (with Im2colPanels).
func BenchmarkGemmPacked(b *testing.B) {
	rng := NewRNG(36)
	a := make([]float32, alexConv1M*alexConv1K)
	bb := make([]float32, alexConv1K*alexConv1N)
	bp := make([]float32, PackedBLen(alexConv1K, alexConv1N))
	c := make([]float32, alexConv1M*alexConv1N)
	rng.FillUniform(a, -1, 1)
	rng.FillUniform(bb, -1, 1)
	b.SetBytes(int64(2 * alexConv1M * alexConv1N * alexConv1K * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PackB(alexConv1K, alexConv1N, bb, bp)
		GemmPacked(alexConv1M, alexConv1N, alexConv1K, a, bp, c, EpNone, nil)
	}
}

// BenchmarkGemmPacked256 is the square-shape partner of
// BenchmarkGemm256, with B packed once outside the loop.
func BenchmarkGemmPacked256(b *testing.B) {
	rng := NewRNG(37)
	n := 256
	a := make([]float32, n*n)
	bb := make([]float32, n*n)
	bp := make([]float32, PackedBLen(n, n))
	c := make([]float32, n*n)
	rng.FillUniform(a, -1, 1)
	rng.FillUniform(bb, -1, 1)
	PackB(n, n, bb, bp)
	b.SetBytes(int64(2 * n * n * n * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmPacked(n, n, n, a, bp, c, EpNone, nil)
	}
}
