package models

import (
	"fmt"
	"math"
	"testing"

	"djinn/internal/nn"
	"djinn/internal/tensor"
)

// TestTable1ParameterCounts asserts each reconstructed network lands
// within 10% of Table 1's published parameter count.
func TestTable1ParameterCounts(t *testing.T) {
	for _, a := range Apps {
		info := Table1(a)
		net := BuildCached(a)
		got := net.ParamCount()
		ratio := float64(got) / float64(info.PaperParams)
		if ratio < 0.90 || ratio > 1.10 {
			t.Errorf("%s (%s): %d params, Table 1 says %d (ratio %.3f)",
				a, info.Network, got, info.PaperParams, ratio)
		}
		t.Logf("%s: %d params (paper %d, ratio %.3f)", a, got, info.PaperParams, ratio)
	}
}

// TestTable1NetTypes asserts the CNN/DNN split of Table 1.
func TestTable1NetTypes(t *testing.T) {
	for _, a := range Apps {
		info := Table1(a)
		if got := BuildCached(a).Kind(); got != info.NetType {
			t.Errorf("%s: kind %s, want %s", a, got, info.NetType)
		}
	}
}

// TestLayerCounts checks engine layer counts against the per-network
// conventions Table 1 quotes: AlexNet, MNIST and Kaldi count every
// compute layer (activations included); DeepFace counts only weighted
// and pooling stages; SENNA counts linear/hardtanh/linear.
func TestLayerCounts(t *testing.T) {
	if got := BuildCached(IMC).LayerCount(); got != 22 {
		t.Errorf("AlexNet LayerCount=%d, want 22", got)
	}
	if got := BuildCached(DIG).LayerCount(); got != 7 {
		t.Errorf("MNIST LayerCount=%d, want 7", got)
	}
	if got := BuildCached(ASR).LayerCount(); got != 13 {
		t.Errorf("Kaldi LayerCount=%d, want 13", got)
	}
	for _, a := range []App{POS, CHK, NER} {
		if got := BuildCached(a).LayerCount(); got != 3 {
			t.Errorf("%s LayerCount=%d, want 3", a, got)
		}
	}
	// DeepFace: 8 counted stages (C1,M2,C3,L4,L5,L6,F7,F8) — the engine
	// additionally holds ReLU/dropout layers, so count weighted+pool.
	counted := 0
	for _, l := range BuildCached(FACE).Layers() {
		switch l.Kind() {
		case "conv", "local", "fc", "maxpool":
			counted++
		}
	}
	if counted != 8 {
		t.Errorf("DeepFace counted stages=%d, want 8", counted)
	}
}

// TestInputShapesMatchTable3Bytes checks that per-query input payloads
// match Table 3's published sizes: IMC 604KB, DIG 307KB, FACE 271KB,
// ASR 4594KB.
func TestInputShapesMatchTable3Bytes(t *testing.T) {
	kb := func(floats int) float64 { return float64(4*floats) / 1024 }
	cases := []struct {
		app    App
		floats int
		wantKB float64
	}{
		{IMC, 3 * 227 * 227, 604},
		{DIG, 100 * 28 * 28, 307},
		{FACE, 3 * 152 * 152, 271},
		{ASR, 548 * ASRFeatureDim, 4594},
	}
	for _, c := range cases {
		got := kb(c.floats)
		if math.Abs(got-c.wantKB) > 1.0 {
			t.Errorf("%s: input %.1f KB, Table 3 says %.0f KB", c.app, got, c.wantKB)
		}
	}
}

// TestForwardPassesRun runs one real inference through every network
// (ASR/NLP with a single frame/word) and checks the output distribution.
func TestForwardPassesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("big nets in -short mode")
	}
	rng := tensor.NewRNG(5)
	for _, a := range Apps {
		net := BuildCached(a)
		r := net.NewRunner(1)
		in := tensor.New(append([]int{1}, net.InShape()...)...)
		rng.FillNorm(in.Data(), 0, 0.3)
		out := r.Forward(in)
		n := out.Dim(1)
		var sum float64
		for j := 0; j < n; j++ {
			v := out.At(0, j)
			if math.IsNaN(float64(v)) {
				t.Fatalf("%s: NaN in output", a)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-3 {
			t.Errorf("%s: output sums to %v", a, sum)
		}
	}
}

// TestOutputClassCounts checks each classifier width.
func TestOutputClassCounts(t *testing.T) {
	want := map[App]int{
		IMC: 1000, DIG: 10, FACE: 4030, ASR: ASRSenones,
		POS: POSTags, CHK: CHKTags, NER: NERTags,
	}
	for a, w := range want {
		if got := BuildCached(a).OutShape()[0]; got != w {
			t.Errorf("%s: %d classes, want %d", a, got, w)
		}
	}
}

// TestBuildDeterministic: same seed ⇒ identical weights; different seed
// ⇒ different weights.
func TestBuildDeterministic(t *testing.T) {
	a := Build(DIG, 7)
	b := Build(DIG, 7)
	c := Build(DIG, 8)
	pa, pb, pc := a.Params()[0].W.Data(), b.Params()[0].W.Data(), c.Params()[0].W.Data()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed produced different weights")
		}
	}
	same := true
	for i := range pa {
		if pa[i] != pc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical weights")
	}
}

func TestParseApp(t *testing.T) {
	for _, a := range Apps {
		got, err := ParseApp(a.String())
		if err != nil || got != a {
			t.Errorf("ParseApp(%s) = %v, %v", a, got, err)
		}
	}
	if _, err := ParseApp("bogus"); err == nil {
		t.Error("ParseApp should reject unknown names")
	}
}

// TestWeightBytesFitK40 checks the paper's deployment constraint: all
// seven resident models must fit comfortably in one K40's 12 GB.
func TestWeightBytesFitK40(t *testing.T) {
	var total int64
	for _, a := range Apps {
		total += BuildCached(a).WeightBytes()
	}
	if total > 12<<30 {
		t.Fatalf("models need %d bytes, exceeding K40 12GB", total)
	}
	if total < 500<<20 {
		t.Fatalf("models only need %d bytes — parameter counts look wrong", total)
	}
}

// TestKernelsNonEmpty sanity-checks the cost descriptors every
// performance experiment depends on.
func TestKernelsNonEmpty(t *testing.T) {
	for _, a := range Apps {
		net := BuildCached(a)
		ks := net.Kernels(1)
		if len(ks) == 0 {
			t.Fatalf("%s: no kernels", a)
		}
		var flops float64
		for _, k := range ks {
			if k.FLOPs < 0 || k.Bytes() <= 0 {
				t.Fatalf("%s: bad kernel %+v", a, k)
			}
			flops += k.FLOPs
		}
		// Forward FLOPs must be at least 2× the parameter count (every
		// weight is used at least once as a multiply-add).
		if flops < 2*float64(net.ParamCount()) {
			t.Errorf("%s: only %.0f FLOPs for %d params", a, flops, net.ParamCount())
		}
	}
}

func TestSennaTaskWidthsDiffer(t *testing.T) {
	p := BuildCached(POS).OutShape()[0]
	c := BuildCached(CHK).OutShape()[0]
	n := BuildCached(NER).OutShape()[0]
	if p == c || c == n || p == n {
		t.Error("SENNA task tag sets should differ")
	}
}

// TestPlanMatchesRunnerAllNetworks is the golden equivalence gate for
// the compiled execution plans: across all seven Tonic networks, a
// plan's output (with in-place elementwise layers, fused bias+ReLU
// epilogues and intra-op parallel GEMM) must be bit-identical to the
// seed Runner forward path — not merely close. One plan serves a short
// batch sequence: 2 grows it from its compiled one sample, 1 runs below
// its high-water batch.
func TestPlanMatchesRunnerAllNetworks(t *testing.T) {
	const maxBatch = 8
	for _, a := range Apps {
		net := BuildCached(a)
		plan := net.CompileOpts(maxBatch, nn.CompileOpts{Workers: 2})
		for _, batch := range []int{2, 1} {
			in := tensor.New(append([]int{batch}, net.InShape()...)...)
			tensor.NewRNG(uint64(a)+21+uint64(batch)).FillNorm(in.Data(), 0, 1)
			want := net.NewRunner(batch).Forward(in)
			got := plan.Forward(in)
			if got.Len() != want.Len() {
				t.Fatalf("%s batch %d: plan output %v, runner %v", a, batch, got.Shape(), want.Shape())
			}
			for i := range got.Data() {
				if got.Data()[i] != want.Data()[i] {
					t.Fatalf("%s batch %d: out[%d] = %v (plan) vs %v (runner): not bit-identical", a, batch, i, got.Data()[i], want.Data()[i])
				}
			}
		}
		if pb, sb := plan.ActivationBytes(), net.ActivationBytes(maxBatch); pb >= sb {
			t.Errorf("%s: plan activation bytes %d not below seed layout %d", a, pb, sb)
		}
	}
}

func BenchmarkBuildMNIST(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Build(DIG, uint64(i))
	}
}

var sinkOut *tensor.Tensor

// benchForward measures the compiled-plan forward path at the batch
// sizes the engine experiment sweeps. Run with -benchmem: steady-state
// allocs/op should be 0.
func benchForward(b *testing.B, a App) {
	net := BuildCached(a)
	for _, batch := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			plan := net.Compile(batch)
			in := tensor.New(append([]int{batch}, net.InShape()...)...)
			tensor.NewRNG(1).FillNorm(in.Data(), 0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkOut = plan.Forward(in)
			}
		})
	}
}

func BenchmarkForwardAlexNet(b *testing.B) { benchForward(b, IMC) }
func BenchmarkForwardMNIST(b *testing.B)   { benchForward(b, DIG) }
func BenchmarkForwardSENNA(b *testing.B)   { benchForward(b, POS) }
