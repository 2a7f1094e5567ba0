package nn

import (
	"math"
	"strings"
	"testing"

	"djinn/internal/tensor"
)

func TestParsePrecisionRoundTrip(t *testing.T) {
	for _, p := range []Precision{Float32, Int8} {
		got, err := ParsePrecision(p.String())
		if err != nil || got != p {
			t.Fatalf("ParsePrecision(%q) = %v, %v", p.String(), got, err)
		}
	}
	if p, err := ParsePrecision(""); err != nil || p != Float32 {
		t.Fatalf("empty precision = %v, %v, want Float32", p, err)
	}
	for _, name := range []string{"float16", "float32-packed", "packed"} {
		_, err := ParsePrecision(name)
		if err == nil || !strings.Contains(err.Error(), "float32") || !strings.Contains(err.Error(), "int8") {
			t.Fatalf("ParsePrecision(%q) error = %v, want one naming float32 and int8", name, err)
		}
	}
}

// directConv is the test's own convolution, written without a tensor
// kernel: each output element is a float32 sum over its group's input
// channels, kernel rows and kernel columns in ascending order, skipping
// out-of-image taps, then the bias and, when relu is set, the clamp.
func directConv(c *Conv, in []float32, batch, h, w int, relu bool) []float32 {
	outH := (h+2*c.PadH-c.KernelH)/c.StrideH + 1
	outW := (w+2*c.PadW-c.KernelW)/c.StrideW + 1
	gInC, gOutC := c.InC/c.Groups, c.OutC/c.Groups
	wt, bias := c.Weight.W.Data(), c.Bias.W.Data()
	out := make([]float32, batch*c.OutC*outH*outW)
	i := 0
	for b := 0; b < batch; b++ {
		for oc := 0; oc < c.OutC; oc++ {
			filter := wt[oc*gInC*c.KernelH*c.KernelW:]
			for oh := 0; oh < outH; oh++ {
				for ow := 0; ow < outW; ow++ {
					var sum float32
					for ci := 0; ci < gInC; ci++ {
						plane := in[(b*c.InC+oc/gOutC*gInC+ci)*h*w:]
						for kh := 0; kh < c.KernelH; kh++ {
							for kw := 0; kw < c.KernelW; kw++ {
								ih, iw := oh*c.StrideH-c.PadH+kh, ow*c.StrideW-c.PadW+kw
								if ih >= 0 && ih < h && iw >= 0 && iw < w {
									sum += filter[(ci*c.KernelH+kh)*c.KernelW+kw] * plane[ih*w+iw]
								}
							}
						}
					}
					v := sum + bias[oc]
					if relu && v < 0 {
						v = 0
					}
					out[i] = v
					i++
				}
			}
		}
	}
	return out
}

// TestConvMatchesDirectLoops holds the float32 convolution — its columns
// written into panels, the panel kernel, the bias and ReLU epilogue — to
// an independent direct convolution, bit for bit, through Conv.Forward
// and through a compiled plan (with the ReLU fused), over groups 1 and 2,
// strides 1 and 4, padding 0 and 2, output sizes of every residue mod 4,
// 1 to 3 workers and batches 1 and 3. The ungrouped filters have 270
// taps, more than one k block of the kernel.
func TestConvMatchesDirectLoops(t *testing.T) {
	const inC, outC, kernel = 30, 6, 3
	for _, groups := range []int{1, 2} {
		for _, stride := range []int{1, 4} {
			for _, pad := range []int{0, 2} {
				for residue := 0; residue < 4; residue++ {
					h, w := convSizeWithResidue(kernel, stride, pad, residue)
					rng := tensor.NewRNG(uint64(100*groups + 10*stride + pad + residue))
					conv := NewConv("conv", rng, inC, outC, kernel, ConvOpt{Stride: stride, Pad: pad, Groups: groups})
					rng.FillUniform(conv.Bias.W.Data(), -1, 1)
					for _, relu := range []bool{false, true} {
						n := NewNet("conv-oracle", KindCNN, inC, h, w).Add(conv)
						if relu {
							n.Add(NewReLU("relu"))
						}
						for _, workers := range []int{1, 2, 3} {
							plan := n.CompileOpts(3, CompileOpts{Workers: workers})
							ctx := NewCtx(1)
							ctx.Workers = workers
							for _, batch := range []int{1, 3} {
								in := randInput(n, batch, uint64(batch))
								want := directConv(conv, in.Data(), batch, h, w, relu)
								direct := tensor.New(append([]int{batch}, n.shapes[0]...)...)
								conv.forward(ctx, in, direct, relu)
								for path, got := range map[string][]float32{"Conv.forward": direct.Data(), "plan": plan.Forward(in).Data()} {
									for i := range want {
										if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
											t.Fatalf("groups %d stride %d pad %d %dx%d relu %v workers %d batch %d: %s out[%d]=%v, direct loops %v",
												groups, stride, pad, h, w, relu, workers, batch, path, i, got[i], want[i])
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}

// convSizeWithResidue returns the smallest input height and width whose
// output has OutH·OutW ≡ residue (mod 4).
func convSizeWithResidue(kernel, stride, pad, residue int) (int, int) {
	for h := kernel; ; h++ {
		for w := kernel; w <= h; w++ {
			oh, ow := (h+2*pad-kernel)/stride+1, (w+2*pad-kernel)/stride+1
			if oh*ow%4 == residue {
				return h, w
			}
		}
	}
}

// TestInt8PlanCloseAndMostlyAgrees checks the quantized plan end to end
// on the zoo net: softmax outputs stay close to the float32 plan's and
// the argmax agrees on the overwhelming majority of random inputs. (The
// seven-net ≥99% top-1 gate lives in internal/models' golden harness.)
func TestInt8PlanCloseAndMostlyAgrees(t *testing.T) {
	n := zooNet(13)
	const maxBatch = 4
	ref := n.Compile(maxBatch)
	plan := n.CompileOpts(maxBatch, CompileOpts{Precision: Int8})
	if plan.Precision() != Int8 {
		t.Fatalf("plan precision = %v", plan.Precision())
	}
	samples, agree := 0, 0
	for trial := 0; trial < 25; trial++ {
		batch := trial%maxBatch + 1
		in := randInput(n, batch, uint64(40+trial))
		want := ref.Forward(in)
		got := plan.Forward(in)
		classes := want.Dim(1)
		for i := range got.Data() {
			if math.Abs(float64(got.Data()[i]-want.Data()[i])) > 0.05 {
				t.Fatalf("trial=%d: prob[%d]=%v, float32 %v: quantization error too large", trial, i, got.Data()[i], want.Data()[i])
			}
		}
		for b := 0; b < batch; b++ {
			samples++
			if tensor.Argmax(got.Data()[b*classes:(b+1)*classes]) == tensor.Argmax(want.Data()[b*classes:(b+1)*classes]) {
				agree++
			}
		}
	}
	if frac := float64(agree) / float64(samples); frac < 0.9 {
		t.Fatalf("int8 top-1 agreement %.2f (%d/%d), want ≥ 0.90", frac, agree, samples)
	}
}

// TestInt8PlanWorkersBitIdentical: integer accumulation is associative,
// so the quantized plan is bit-identical across worker counts by
// construction — a stronger guarantee than the float path needs careful
// row-splitting for.
func TestInt8PlanWorkersBitIdentical(t *testing.T) {
	n := zooNet(14)
	const maxBatch = 3
	serial := n.CompileOpts(maxBatch, CompileOpts{Precision: Int8})
	for _, workers := range []int{2, 3, 5} {
		plan := n.CompileOpts(maxBatch, CompileOpts{Workers: workers, Precision: Int8})
		for batch := 1; batch <= maxBatch; batch++ {
			in := randInput(n, batch, uint64(50+batch))
			want := serial.Forward(in)
			got := plan.Forward(in)
			for i := range got.Data() {
				if got.Data()[i] != want.Data()[i] {
					t.Fatalf("workers=%d batch=%d: out[%d]=%v, serial %v (must be bit-identical)",
						workers, batch, i, got.Data()[i], want.Data()[i])
				}
			}
		}
	}
}

func TestPrecisionPlansZeroAllocSteadyState(t *testing.T) {
	n := zooNet(15)
	plan := n.CompileOpts(4, CompileOpts{Precision: Int8})
	in := randInput(n, 4, 16)
	plan.Forward(in)
	if allocs := testing.AllocsPerRun(20, func() { plan.Forward(in) }); allocs != 0 {
		t.Fatalf("int8: %.1f allocs per forward, want 0", allocs)
	}
}

// TestRetainForcesFloat32: training plans never route through precision
// backends — Backward reads float32 weights.
func TestRetainForcesFloat32(t *testing.T) {
	n := zooNet(17)
	plan := n.CompileOpts(2, CompileOpts{Retain: true, Precision: Int8})
	if plan.Precision() != Float32 {
		t.Fatalf("retain plan precision = %v, want Float32", plan.Precision())
	}
	for i, st := range plan.steps {
		if st.exec != nil {
			t.Fatalf("retain plan step %d has a backend exec installed", i)
		}
	}
}

// TestPreQuantizedParamBitIdentical: a Param.Q loaded from a model file
// (produced by the same QuantizeSymmetric the compiler runs) yields a
// bit-identical int8 plan to on-the-fly quantization.
func TestPreQuantizedParamBitIdentical(t *testing.T) {
	const seed = 18
	onTheFly := zooNet(seed).CompileOpts(2, CompileOpts{Precision: Int8})

	n := zooNet(seed)
	for _, l := range n.Layers() {
		switch l.Kind() {
		case "conv", "fc":
			w := l.Params()[0]
			q := make([]int8, w.W.Len())
			scale := tensor.QuantizeSymmetric(w.W.Data(), q)
			w.Q = &QuantizedParam{Scale: scale, Data: q}
		}
	}
	stored := n.CompileOpts(2, CompileOpts{Precision: Int8})

	in := randInput(n, 2, 19)
	want := onTheFly.Forward(in)
	got := stored.Forward(in)
	for i := range got.Data() {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("out[%d]=%v, on-the-fly %v (must be bit-identical)", i, got.Data()[i], want.Data()[i])
		}
	}
}
