package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

// The exhaustive kernel tests run every m in 1…13 and n in 1…33 — each
// residue of packMR = 6 and packNR = 16 at least twice, full tiles and
// fringes alike — at k on both sides of packKC = 256: one block, a
// block that is exactly full, and two blocks whose partial sums
// round-trip through C.
const (
	fringeM = 13
	fringeN = 33
)

var fringeK = []int{1, 7, 256, 300}

// epilogueCases returns every epilogue with the bias it reads (nil for
// EpNone) and its unfused reference: the bias add, then the ReLU clamp,
// one element at a time over an m×n product.
func epilogueCases(m, n int, rowBias, colBias []float32) []struct {
	ep   Epilogue
	bias []float32
	ref  func(c []float32)
} {
	return []struct {
		ep   Epilogue
		bias []float32
		ref  func(c []float32)
	}{
		{EpNone, nil, func([]float32) {}},
		{EpBiasCol, colBias, func(c []float32) { AddBias(m, n, c, colBias) }},
		{EpBiasColReLU, colBias, func(c []float32) { AddBiasReLU(m, n, c, colBias) }},
		{EpBiasRow, rowBias, func(c []float32) { addRowBias(m, n, c, rowBias) }},
		{EpBiasRowReLU, rowBias, func(c []float32) { addRowBias(m, n, c, rowBias); ReLU(c) }},
	}
}

// gemmOperands returns random m×k A and k×n B (A with exact zeros
// sprinkled in, so the reference kernel's av==0 skip is exercised
// against the packed kernel's unconditional add), B packed, and random
// row and column biases.
func gemmOperands(rng *RNG, m, n, k int) (a, b, bp, rowBias, colBias []float32) {
	a = make([]float32, m*k)
	b = make([]float32, k*n)
	rowBias = make([]float32, m)
	colBias = make([]float32, n)
	rng.FillUniform(a, -1, 1)
	rng.FillUniform(b, -1, 1)
	rng.FillUniform(rowBias, -1, 1)
	rng.FillUniform(colBias, -1, 1)
	for i := 0; i < len(a); i += 7 {
		a[i] = 0
	}
	bp = make([]float32, PackedBLen(k, n))
	PackB(k, n, b, bp)
	return a, b, bp, rowBias, colBias
}

// equalBits reports the first index at which got and want differ in
// their bit patterns, or -1.
func equalBits(got, want []float32) int {
	for i := range got {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i
		}
	}
	return -1
}

func TestPackedBLen(t *testing.T) {
	if got := PackedBLen(3, packNR+1); got != 2*3*packNR {
		t.Fatalf("PackedBLen(3,%d)=%d", packNR+1, got)
	}
	if got := PackedBLen(7, packNR); got != 7*packNR {
		t.Fatalf("PackedBLen(7,%d)=%d", packNR, got)
	}
	if got := PackedBLen(5, 0); got != 0 {
		t.Fatalf("PackedBLen(5,0)=%d", got)
	}
}

// TestPackBZeroesPadLanes: the lanes of the last panel past n are
// zeroed, whatever the buffer held before.
func TestPackBZeroesPadLanes(t *testing.T) {
	for n := 1; n <= fringeN; n++ {
		const k = 5
		b := make([]float32, k*n)
		NewRNG(uint64(n)).FillUniform(b, -1, 1)
		bp := make([]float32, PackedBLen(k, n))
		for i := range bp {
			bp[i] = float32(math.NaN())
		}
		PackB(k, n, b, bp)
		for i, v := range bp {
			p, kk, jj := i/(k*packNR), i%(k*packNR)/packNR, i%packNR
			want := float32(0)
			if j := p*packNR + jj; j < n {
				want = b[kk*n+j]
			}
			if math.Float32bits(v) != math.Float32bits(want) {
				t.Fatalf("n=%d: bp[%d] (panel %d, k %d, lane %d) = %v, want %v", n, i, p, kk, jj, v, want)
			}
		}
	}
}

// TestIm2colPanelsMatchesIm2colPackB: writing the columns straight into
// panels leaves exactly the bits Im2col followed by PackB does, pad
// lanes included, over strides 1 and 4, padding 0 and 2, 1×1 and 3×3
// kernels, k on both sides of packKC, and output widths 1…33, which
// give every column count n in 1…33 where the padding allows and every
// residue mod packNR everywhere. bp starts as NaN so a lane left
// unwritten shows.
func TestIm2colPanelsMatchesIm2colPackB(t *testing.T) {
	rng := NewRNG(30)
	nan := float32(math.NaN())
	for _, stride := range []int{1, 4} {
		for _, pad := range []int{0, 2} {
			for _, kernel := range []int{1, 3} {
				for _, channels := range []int{3, 28, 29} {
					residues := map[int]bool{}
					for _, outH := range []int{1, 3} {
						for outW := 1; outW <= fringeN; outW++ {
							g := ConvGeom{Channels: channels, KernelH: kernel, KernelW: kernel,
								StrideH: stride, StrideW: stride, PadH: pad, PadW: pad,
								Height: max(1, (outH-1)*stride+kernel-2*pad),
								Width:  max(1, (outW-1)*stride+kernel-2*pad)}
							k, n := channels*kernel*kernel, g.OutH()*g.OutW()
							residues[n%packNR] = true
							img := make([]float32, channels*g.Height*g.Width)
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
							if i := equalBits(got, want); i >= 0 {
								t.Fatalf("%+v: bp[%d]=%v, Im2col+PackB %v", g, i, got[i], want[i])
							}
						}
					}
					if len(residues) != packNR {
						t.Fatalf("stride %d pad %d kernel %d: column counts cover residues %v, want all of 0..%d",
							stride, pad, kernel, residues, packNR-1)
					}
				}
			}
		}
	}
}

// TestGemmPackedBitIdenticalToGemm pins the central numerical contract
// of the packed backend, on the AVX2 tile and on its twin: for finite
// inputs it produces exactly the bytes Gemm(m,n,k,1,a,b,0,c) does,
// because every output element accumulates its products one at a time
// in the same ascending-k order and partials round-trip through C
// exactly.
func TestGemmPackedBitIdenticalToGemm(t *testing.T) {
	checkPackedAgainstGemm(t, 31, func(ep Epilogue) bool { return ep == EpNone })
}

// TestGemmPackedEpiloguesBitIdentical checks each fused epilogue against
// the unfused reference sequence: Gemm, then the bias add, then the ReLU
// clamp.
func TestGemmPackedEpiloguesBitIdentical(t *testing.T) {
	checkPackedAgainstGemm(t, 33, func(ep Epilogue) bool { return ep != EpNone })
}

// checkPackedAgainstGemm runs the packed kernel on both tiles over every
// fringe shape with the epilogues keep selects, and requires the bits of
// Gemm followed by each epilogue's unfused reference.
func checkPackedAgainstGemm(t *testing.T, seed uint64, keep func(Epilogue) bool) {
	rng := NewRNG(seed)
	for _, k := range fringeK {
		for m := 1; m <= fringeM; m++ {
			for n := 1; n <= fringeN; n++ {
				a, b, bp, rowBias, colBias := gemmOperands(rng, m, n, k)
				base := make([]float32, m*n)
				Gemm(m, n, k, 1, a, b, 0, base)
				for _, tc := range epilogueCases(m, n, rowBias, colBias) {
					if !keep(tc.ep) {
						continue
					}
					want := append([]float32(nil), base...)
					tc.ref(want)
					for name, asm := range tileImpls() {
						got := make([]float32, m*n)
						rng.FillUniform(got, -9, 9) // must be overwritten
						gemmPacked(asm, 1, m, n, k, a, bp, got, tc.ep, tc.bias)
						if i := equalBits(got, want); i >= 0 {
							t.Fatalf("%s ep=%d m=%d n=%d k=%d: c[%d]=%v, unfused Gemm %v (must be bit-identical)",
								name, tc.ep, m, n, k, i, got[i], want[i])
						}
					}
				}
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
// bit-identical for any worker count, on the AVX2 tile and on its twin,
// the row-tile split and the panel split (m ≤ packMR) alike, with row
// and column biases.
func TestGemmPackedParallelBitIdentical(t *testing.T) {
	rng := NewRNG(34)
	for _, k := range []int{7, 300} {
		for m := 1; m <= fringeM; m++ {
			for n := 1; n <= fringeN; n++ {
				a, _, bp, rowBias, colBias := gemmOperands(rng, m, n, k)
				for _, tc := range epilogueCases(m, n, rowBias, colBias) {
					want := make([]float32, m*n)
					gemmPacked(false, 1, m, n, k, a, bp, want, tc.ep, tc.bias)
					for name, asm := range tileImpls() {
						for _, workers := range []int{2, 3, 16} {
							got := make([]float32, m*n)
							gemmPacked(asm, workers, m, n, k, a, bp, got, tc.ep, tc.bias)
							if i := equalBits(got, want); i >= 0 {
								t.Fatalf("%s workers=%d ep=%d m=%d n=%d k=%d: c[%d]=%v, serial %v (must be bit-identical)",
									name, workers, tc.ep, m, n, k, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestGemmParallelBitIdenticalToSerial: the parallel panel kernel is
// bit-identical (==, not within tolerance) to the serial one on shapes
// that are not multiples of the 6-row tile or the panel width, and with
// worker counts beyond the row-tile count, which the split clamps.
func TestGemmParallelBitIdenticalToSerial(t *testing.T) {
	rng := NewRNG(11)
	shapes := [][3]int{{1, 1, 1}, {5, 3, 9}, {17, 31, 13}, {65, 63, 70}, {3, 257, 65}, {130, 19, 67}, {97, 169, 520}}
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		a, _, bp, _, _ := gemmOperands(rng, m, n, k)
		for name, asm := range tileImpls() {
			want := make([]float32, m*n)
			gemmPacked(asm, 1, m, n, k, a, bp, want, EpNone, nil)
			for _, workers := range []int{1, 2, 3, 7, 16, 64} {
				got := make([]float32, m*n)
				gemmPacked(asm, workers, m, n, k, a, bp, got, EpNone, nil)
				if i := equalBits(got, want); i >= 0 {
					t.Fatalf("%s workers=%d m=%d n=%d k=%d: c[%d]=%v, serial %v (must be bit-identical)",
						name, workers, m, n, k, i, got[i], want[i])
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

// BenchmarkGemmPackedConv runs GemmPacked on the per-group GEMM of each
// convolution the image nets serve — filter rows m, output positions n,
// kernel taps k — with the bias epilogue the layer uses (ReLU fused
// where a ReLU follows) and the columns packed once outside the loop,
// and reports the kernel's rate in GFLOP/s (2·m·n·k per call).
func BenchmarkGemmPackedConv(b *testing.B) {
	shapes := []struct {
		name    string
		m, n, k int
		ep      Epilogue
	}{
		{"IMC/conv1", 96, 55 * 55, 3 * 11 * 11, EpBiasRowReLU},
		{"IMC/conv2", 128, 27 * 27, 48 * 5 * 5, EpBiasRowReLU},
		{"IMC/conv3", 384, 13 * 13, 256 * 3 * 3, EpBiasRowReLU},
		{"IMC/conv4", 192, 13 * 13, 192 * 3 * 3, EpBiasRowReLU},
		{"IMC/conv5", 128, 13 * 13, 192 * 3 * 3, EpBiasRowReLU},
		{"DIG/conv1", 20, 24 * 24, 1 * 5 * 5, EpBiasRow},
		{"DIG/conv2", 40, 8 * 8, 20 * 5 * 5, EpBiasRow},
	}
	for _, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			a, _, bp, rowBias, _ := gemmOperands(NewRNG(39), s.m, s.n, s.k)
			c := make([]float32, s.m*s.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				GemmPacked(s.m, s.n, s.k, a, bp, c, s.ep, rowBias)
			}
			b.ReportMetric(2*float64(s.m*s.n*s.k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
