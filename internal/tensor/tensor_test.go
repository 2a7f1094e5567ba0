package tensor

import (
	"bytes"
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.Dims() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("bad shape %v", x.Shape())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New not zero-filled")
		}
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	x := New(3, 4, 5)
	x.Set(7.5, 2, 1, 3)
	if got := x.At(2, 1, 3); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	// Row-major offset check: (2*4+1)*5+3 = 48.
	if x.Data()[48] != 7.5 {
		t.Fatalf("row-major layout broken: data[48]=%v", x.Data()[48])
	}
}

func TestFromSliceSharesStorage(t *testing.T) {
	d := []float32{1, 2, 3, 4}
	x := FromSlice(d, 2, 2)
	d[3] = 9
	if x.At(1, 1) != 9 {
		t.Fatal("FromSlice should not copy")
	}
}

func TestBatchViews(t *testing.T) {
	d := make([]float32, 4*6+1)
	sample := []int{2, 3}
	views := BatchViews(d, sample, 4)
	for b, v := range views {
		if got := v.Shape(); len(got) != 3 || got[0] != b+1 || got[1] != 2 || got[2] != 3 {
			t.Fatalf("view %d shape %v, want [%d 2 3]", b, got, b+1)
		}
		if v.Len() != (b+1)*6 || &v.Data()[0] != &d[0] {
			t.Fatalf("view %d covers %d floats at a different base, want the first %d of data", b, v.Len(), (b+1)*6)
		}
	}
	views[3].Set(7, 3, 1, 2)
	if d[23] != 7 {
		t.Fatal("BatchViews should not copy")
	}
	if allocs := testing.AllocsPerRun(10, func() { BatchViews(d, sample, 4) }); allocs > 3 {
		t.Fatalf("%.0f allocations for 4 views, want ≤ 3", allocs)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("BatchViews past the end of data should panic")
		}
	}()
	BatchViews(d, sample, 5)
}

func TestReshapeSharesStorage(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Set(5, 2, 3)
	if x.At(1, 5) != 5 {
		t.Fatal("Reshape should share storage")
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := New(2, 2)
	x.Fill(1)
	y := x.Clone()
	y.Fill(2)
	if x.At(0, 0) != 1 {
		t.Fatal("Clone should copy storage")
	}
}

func TestPanicsOnBadShapes(t *testing.T) {
	cases := []func(){
		func() { New() },
		func() { New(2, 0) },
		func() { New(-1) },
		func() { FromSlice([]float32{1, 2}, 3) },
		func() { New(2, 2).Reshape(5) },
		func() { New(2, 2).At(2, 0) },
		func() { New(2, 2).At(0) },
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

func TestGemmMatchesNaive(t *testing.T) {
	rng := NewRNG(1)
	shapes := [][3]int{{1, 1, 1}, {3, 5, 7}, {16, 16, 16}, {65, 63, 70}, {128, 300, 41}, {200, 1, 200}, {1, 257, 65}}
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		c0 := make([]float32, m*n)
		rng.FillUniform(a, -1, 1)
		rng.FillUniform(b, -1, 1)
		rng.FillUniform(c0, -1, 1)
		c1 := append([]float32(nil), c0...)
		c2 := append([]float32(nil), c0...)
		Gemm(m, n, k, 0.5, a, b, 0.25, c1)
		GemmNaive(m, n, k, 0.5, a, b, 0.25, c2)
		for i := range c1 {
			if diff := math.Abs(float64(c1[i] - c2[i])); diff > 1e-3 {
				t.Fatalf("m=%d n=%d k=%d: c[%d]=%v want %v", m, n, k, i, c1[i], c2[i])
			}
		}
	}
}

func TestGemmProperty(t *testing.T) {
	// Property: blocked GEMM agrees with the reference implementation on
	// random shapes and data.
	rng := NewRNG(2)
	f := func(mRaw, nRaw, kRaw uint8) bool {
		m, n, k := int(mRaw%40)+1, int(nRaw%40)+1, int(kRaw%40)+1
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		rng.FillUniform(a, -2, 2)
		rng.FillUniform(b, -2, 2)
		c1 := make([]float32, m*n)
		c2 := make([]float32, m*n)
		Gemm(m, n, k, 1, a, b, 0, c1)
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

func TestGemmBetaZeroIgnoresNaN(t *testing.T) {
	// beta=0 must overwrite, not multiply, so NaN garbage in C is fine.
	a := []float32{1, 2, 3, 4}
	b := []float32{1, 0, 0, 1}
	c := []float32{float32(math.NaN()), float32(math.NaN()), float32(math.NaN()), float32(math.NaN())}
	Gemm(2, 2, 2, 1, a, b, 0, c)
	want := []float32{1, 2, 3, 4}
	for i := range c {
		if c[i] != want[i] {
			t.Fatalf("c[%d]=%v want %v", i, c[i], want[i])
		}
	}
}

func TestGemvMatchesGemm(t *testing.T) {
	rng := NewRNG(3)
	m, n := 37, 53
	a := make([]float32, m*n)
	x := make([]float32, n)
	rng.FillUniform(a, -1, 1)
	rng.FillUniform(x, -1, 1)
	y1 := make([]float32, m)
	y2 := make([]float32, m)
	Gemv(m, n, 1, a, x, 0, y1)
	Gemm(m, 1, n, 1, a, x, 0, y2)
	for i := range y1 {
		if math.Abs(float64(y1[i]-y2[i])) > 1e-4 {
			t.Fatalf("y[%d]=%v want %v", i, y1[i], y2[i])
		}
	}
}

func TestIm2colIdentityKernel(t *testing.T) {
	// A 1x1 kernel with stride 1 and no padding is the identity.
	g := ConvGeom{Channels: 2, Height: 3, Width: 3, KernelH: 1, KernelW: 1, StrideH: 1, StrideW: 1}
	img := make([]float32, 18)
	for i := range img {
		img[i] = float32(i)
	}
	col := make([]float32, ColSize(g))
	Im2col(g, img, col)
	for i := range img {
		if col[i] != img[i] {
			t.Fatalf("col[%d]=%v want %v", i, col[i], img[i])
		}
	}
}

func TestIm2colKnownValues(t *testing.T) {
	// 1 channel, 3x3 image, 2x2 kernel, stride 1, no pad → 2x2 output.
	g := ConvGeom{Channels: 1, Height: 3, Width: 3, KernelH: 2, KernelW: 2, StrideH: 1, StrideW: 1}
	img := []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	col := make([]float32, ColSize(g))
	Im2col(g, img, col)
	// Rows are kernel taps (kh,kw), columns are output positions.
	want := []float32{
		1, 2, 4, 5, // tap (0,0)
		2, 3, 5, 6, // tap (0,1)
		4, 5, 7, 8, // tap (1,0)
		5, 6, 8, 9, // tap (1,1)
	}
	for i := range want {
		if col[i] != want[i] {
			t.Fatalf("col[%d]=%v want %v", i, col[i], want[i])
		}
	}
}

func TestIm2colPadding(t *testing.T) {
	g := ConvGeom{Channels: 1, Height: 2, Width: 2, KernelH: 3, KernelW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	if g.OutH() != 2 || g.OutW() != 2 {
		t.Fatalf("out %dx%d, want 2x2", g.OutH(), g.OutW())
	}
	img := []float32{1, 2, 3, 4}
	col := make([]float32, ColSize(g))
	Im2col(g, img, col)
	// Center tap (1,1) should reproduce the image.
	centerOff := (1*3 + 1) * 4
	want := []float32{1, 2, 3, 4}
	for i := range want {
		if col[centerOff+i] != want[i] {
			t.Fatalf("center tap[%d]=%v want %v", i, col[centerOff+i], want[i])
		}
	}
	// Corner tap (0,0) sees padding except bottom-right output.
	if col[0] != 0 || col[1] != 0 || col[2] != 0 || col[3] != 1 {
		t.Fatalf("corner tap wrong: %v", col[:4])
	}
}

func TestCol2imAdjointProperty(t *testing.T) {
	// <Im2col(x), y> == <x, Col2im(y)> — the defining adjoint property,
	// which the conv backward pass depends on.
	rng := NewRNG(4)
	f := func(hRaw, wRaw, kRaw, sRaw, pRaw uint8) bool {
		h := int(hRaw%6) + 3
		w := int(wRaw%6) + 3
		k := int(kRaw%3) + 1
		s := int(sRaw%2) + 1
		p := int(pRaw % 2)
		g := ConvGeom{Channels: 2, Height: h, Width: w, KernelH: k, KernelW: k, StrideH: s, StrideW: s, PadH: p, PadW: p}
		if g.OutH() <= 0 || g.OutW() <= 0 {
			return true
		}
		x := make([]float32, 2*h*w)
		rng.FillUniform(x, -1, 1)
		cx := make([]float32, ColSize(g))
		Im2col(g, x, cx)
		y := make([]float32, ColSize(g))
		rng.FillUniform(y, -1, 1)
		back := make([]float32, 2*h*w)
		Col2im(g, y, back)
		lhs := float64(Dot(cx, y))
		rhs := float64(Dot(x, back))
		return math.Abs(lhs-rhs) <= 1e-2*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := NewRNG(5)
	f := func(mRaw, nRaw uint8) bool {
		m, n := int(mRaw%10)+1, int(nRaw%20)+1
		x := make([]float32, m*n)
		rng.FillUniform(x, -30, 30)
		Softmax(m, n, x)
		for i := 0; i < m; i++ {
			var s float64
			for j := 0; j < n; j++ {
				v := x[i*n+j]
				if v < 0 || v > 1 || math.IsNaN(float64(v)) {
					return false
				}
				s += float64(v)
			}
			if math.Abs(s-1) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxStableForLargeInputs(t *testing.T) {
	x := []float32{1000, 1001, 1002}
	Softmax(1, 3, x)
	if math.IsNaN(float64(x[0])) || math.IsNaN(float64(x[2])) {
		t.Fatal("softmax overflowed")
	}
	if x[2] <= x[1] || x[1] <= x[0] {
		t.Fatal("softmax not monotone")
	}
}

func TestLogSoftmaxAgreesWithSoftmax(t *testing.T) {
	rng := NewRNG(6)
	x := make([]float32, 24)
	rng.FillUniform(x, -5, 5)
	y := append([]float32(nil), x...)
	Softmax(3, 8, x)
	LogSoftmax(3, 8, y)
	for i := range x {
		if math.Abs(math.Log(float64(x[i]))-float64(y[i])) > 1e-3 {
			t.Fatalf("log softmax mismatch at %d: %v vs %v", i, math.Log(float64(x[i])), y[i])
		}
	}
}

func TestActivations(t *testing.T) {
	x := []float32{-2, -0.5, 0, 0.5, 2}
	r := append([]float32(nil), x...)
	ReLU(r)
	if r[0] != 0 || r[1] != 0 || r[3] != 0.5 || r[4] != 2 {
		t.Fatalf("relu wrong: %v", r)
	}
	h := append([]float32(nil), x...)
	HardTanh(h)
	want := []float32{-1, -0.5, 0, 0.5, 1}
	for i := range want {
		if h[i] != want[i] {
			t.Fatalf("hardtanh wrong: %v", h)
		}
	}
	s := append([]float32(nil), x...)
	Sigmoid(s)
	if s[2] != 0.5 {
		t.Fatalf("sigmoid(0) = %v", s[2])
	}
	if s[0] >= s[1] || s[3] >= s[4] {
		t.Fatal("sigmoid not monotone")
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float32{3, 1, 4, 1, 5, 9, 2, 6}) != 5 {
		t.Fatal("argmax wrong")
	}
	if Argmax([]float32{-1}) != 0 {
		t.Fatal("argmax single wrong")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("RNG not deterministic")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGUniformRange(t *testing.T) {
	r := NewRNG(7)
	var sum float64
	n := 20000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / float64(n); mean < 0.48 || mean > 0.52 {
		t.Fatalf("suspicious mean %v", mean)
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(8)
	var sum, sumSq float64
	n := 20000
	for i := 0; i < n; i++ {
		v := float64(r.Norm())
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.05 || math.Abs(variance-1) > 0.1 {
		t.Fatalf("norm moments off: mean=%v var=%v", mean, variance)
	}
}

func TestXavierFillBounds(t *testing.T) {
	r := NewRNG(9)
	x := make([]float32, 1000)
	r.XavierFill(x, 100, 50)
	limit := float32(math.Sqrt(6.0 / 150.0))
	for _, v := range x {
		if v < -limit || v >= limit {
			t.Fatalf("xavier out of bounds: %v (limit %v)", v, limit)
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := NewRNG(10)
	x := New(3, 7, 5)
	rng.FillNorm(x.Data(), 0, 2)
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !x.SameShape(y) {
		t.Fatalf("shape %v != %v", x.Shape(), y.Shape())
	}
	for i := range x.Data() {
		if x.Data()[i] != y.Data()[i] {
			t.Fatalf("data[%d] %v != %v", i, x.Data()[i], y.Data()[i])
		}
	}
}

func TestSerializationPropertyRoundTrip(t *testing.T) {
	rng := NewRNG(11)
	f := func(aRaw, bRaw uint8) bool {
		a, b := int(aRaw%9)+1, int(bRaw%9)+1
		x := New(a, b)
		rng.FillUniform(x.Data(), -100, 100)
		var buf bytes.Buffer
		if _, err := x.WriteTo(&buf); err != nil {
			return false
		}
		y, err := ReadFrom(&buf)
		if err != nil || !x.SameShape(y) {
			return false
		}
		for i := range x.Data() {
			if x.Data()[i] != y.Data()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("expected error on bad magic")
	}
	var buf bytes.Buffer
	x := New(2, 2)
	x.WriteTo(&buf)
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := ReadFrom(bytes.NewReader(trunc)); err == nil {
		t.Fatal("expected error on truncated stream")
	}
}

func TestAxpyDotScale(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{10, 20, 30}
	Axpy(2, x, y)
	if y[0] != 12 || y[1] != 24 || y[2] != 36 {
		t.Fatalf("axpy wrong: %v", y)
	}
	if Dot(x, x) != 14 {
		t.Fatalf("dot wrong: %v", Dot(x, x))
	}
	Scale(0.5, y)
	if y[0] != 6 {
		t.Fatalf("scale wrong: %v", y)
	}
}

func TestAddBias(t *testing.T) {
	x := []float32{0, 0, 0, 0, 0, 0}
	AddBias(2, 3, x, []float32{1, 2, 3})
	want := []float32{1, 2, 3, 1, 2, 3}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("AddBias wrong: %v", x)
		}
	}
}

func TestSumAndMaxAbs(t *testing.T) {
	if Sum([]float32{1, -2, 3}) != 2 {
		t.Fatal("sum wrong")
	}
	if MaxAbs([]float32{1, -5, 3}) != 5 {
		t.Fatal("maxabs wrong")
	}
	if MaxAbs(nil) != 0 {
		t.Fatal("maxabs empty wrong")
	}
}

func BenchmarkGemm256(b *testing.B) {
	rng := NewRNG(20)
	n := 256
	a := make([]float32, n*n)
	bb := make([]float32, n*n)
	c := make([]float32, n*n)
	rng.FillUniform(a, -1, 1)
	rng.FillUniform(bb, -1, 1)
	b.SetBytes(int64(2 * n * n * n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(n, n, n, 1, a, bb, 0, c)
	}
}

func BenchmarkIm2colAlexNetConv1(b *testing.B) {
	g := ConvGeom{Channels: 3, Height: 227, Width: 227, KernelH: 11, KernelW: 11, StrideH: 4, StrideW: 4}
	img := make([]float32, 3*227*227)
	col := make([]float32, ColSize(g))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2col(g, img, col)
	}
}

// BenchmarkGemmNaive256 is the ablation partner of BenchmarkGemm256:
// the speedup of cache blocking over the naive triple loop.
func BenchmarkGemmNaive256(b *testing.B) {
	rng := NewRNG(21)
	n := 256
	a := make([]float32, n*n)
	bb := make([]float32, n*n)
	c := make([]float32, n*n)
	rng.FillUniform(a, -1, 1)
	rng.FillUniform(bb, -1, 1)
	b.SetBytes(int64(2 * n * n * n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmNaive(n, n, n, 1, a, bb, 0, c)
	}
}

// BenchmarkGemv4096 measures the memory-bound FC-at-batch-1 shape that
// motivates the paper's batching optimisation.
func BenchmarkGemv4096(b *testing.B) {
	rng := NewRNG(22)
	m, n := 4096, 4096
	a := make([]float32, m*n)
	x := make([]float32, n)
	y := make([]float32, m)
	rng.FillUniform(a, -1, 1)
	rng.FillUniform(x, -1, 1)
	b.SetBytes(int64(m * n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemv(m, n, 1, a, x, 0, y)
	}
}

func TestParallelRowsCoversDisjointBlocks(t *testing.T) {
	// Every row is visited exactly once regardless of worker count.
	for _, rows := range []int{0, 1, 2, 7, 64, 100} {
		for _, workers := range []int{1, 2, 3, 16, 200} {
			var mu sync.Mutex
			seen := make([]int, rows)
			ParallelRows(workers, rows, func(lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				for i := lo; i < hi; i++ {
					seen[i]++
				}
			})
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("rows=%d workers=%d: row %d visited %d times", rows, workers, i, c)
				}
			}
		}
	}
}

func TestAddBiasReLUMatchesUnfused(t *testing.T) {
	rng := NewRNG(13)
	m, n := 7, 33
	x0 := make([]float32, m*n)
	colBias := make([]float32, n)
	rng.FillUniform(x0, -2, 2)
	rng.FillUniform(colBias, -1, 1)

	fused := append([]float32(nil), x0...)
	AddBiasReLU(m, n, fused, colBias)
	want := append([]float32(nil), x0...)
	AddBias(m, n, want, colBias)
	ReLU(want)
	for i := range fused {
		if fused[i] != want[i] {
			t.Fatalf("AddBiasReLU[%d]=%v, unfused %v (must be bit-identical)", i, fused[i], want[i])
		}
	}
}
