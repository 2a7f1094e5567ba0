package nn

import (
	"fmt"

	"djinn/internal/tensor"
)

// Conv is a 2-D convolution layer over NCHW inputs, implemented as
// im2col followed by GEMM per image, exactly the lowering Caffe uses on
// both CPU (ATLAS) and GPU (cuBLAS). Groups splits input and output
// channels into independent convolution groups (AlexNet uses groups=2
// for its conv2/4/5 layers).
type Conv struct {
	name             string
	InC, OutC        int
	KernelH, KernelW int
	StrideH, StrideW int
	PadH, PadW       int
	Groups           int
	Weight           *Param // [OutC, InC/Groups, KH, KW]
	Bias             *Param // [OutC]

	kern convKernelCache // lazily built quantized weight form
}

// ConvOpt configures optional convolution geometry.
type ConvOpt struct {
	Stride, Pad, Groups int
}

// NewConv creates a convolution layer with Xavier-initialised weights.
func NewConv(name string, rng *tensor.RNG, inC, outC, kernel int, opt ConvOpt) *Conv {
	if opt.Stride == 0 {
		opt.Stride = 1
	}
	if opt.Groups == 0 {
		opt.Groups = 1
	}
	if inC%opt.Groups != 0 || outC%opt.Groups != 0 {
		panic(fmt.Sprintf("nn: conv %s: channels (%d→%d) not divisible by groups %d", name, inC, outC, opt.Groups))
	}
	c := &Conv{
		name: name, InC: inC, OutC: outC,
		KernelH: kernel, KernelW: kernel,
		StrideH: opt.Stride, StrideW: opt.Stride,
		PadH: opt.Pad, PadW: opt.Pad,
		Groups: opt.Groups,
	}
	w := tensor.NewParam(outC, inC/opt.Groups, kernel, kernel)
	fanIn := (inC / opt.Groups) * kernel * kernel
	fanOut := (outC / opt.Groups) * kernel * kernel
	rng.XavierFill(w.Data(), fanIn, fanOut)
	c.Weight = &Param{Name: name + ".weight", W: w}
	c.Bias = &Param{Name: name + ".bias", W: tensor.New(outC)}
	return c
}

// Name implements Layer.
func (c *Conv) Name() string { return c.name }

// Kind implements Layer.
func (c *Conv) Kind() string { return "conv" }

// Params implements Layer.
func (c *Conv) Params() []*Param { return []*Param{c.Weight, c.Bias} }

func (c *Conv) geom(in []int) tensor.ConvGeom {
	return tensor.ConvGeom{
		Channels: in[0], Height: in[1], Width: in[2],
		KernelH: c.KernelH, KernelW: c.KernelW,
		StrideH: c.StrideH, StrideW: c.StrideW,
		PadH: c.PadH, PadW: c.PadW,
	}
}

// OutShape implements Layer.
func (c *Conv) OutShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, shapeErr(c.Kind(), c.name, in, "want [C,H,W]")
	}
	if in[0] != c.InC {
		return nil, shapeErr(c.Kind(), c.name, in, fmt.Sprintf("want %d input channels", c.InC))
	}
	g := c.geom(in)
	if g.OutH() <= 0 || g.OutW() <= 0 {
		return nil, shapeErr(c.Kind(), c.name, in, "kernel larger than padded input")
	}
	return []int{c.OutC, g.OutH(), g.OutW()}, nil
}

// Forward implements Layer.
func (c *Conv) Forward(ctx *Ctx, in, out *tensor.Tensor) {
	c.forward(ctx, in, out, false)
}

// forwardReLU implements fusedBiasReLU: the same convolution with the
// following ReLU folded into the bias epilogue.
func (c *Conv) forwardReLU(ctx *Ctx, in, out *tensor.Tensor) {
	c.forward(ctx, in, out, true)
}

func (c *Conv) forward(ctx *Ctx, in, out *tensor.Tensor, fuseReLU bool) {
	batch := in.Dim(0)
	inShape := in.Shape()[1:]
	g := c.geom(inShape)
	outH, outW := g.OutH(), g.OutW()
	outSpatial := outH * outW
	gInC := c.InC / c.Groups
	gOutC := c.OutC / c.Groups
	kTaps := gInC * c.KernelH * c.KernelW
	groupGeom := g
	groupGeom.Channels = gInC
	col := ctx.scratch(kTaps * outSpatial)
	w := c.Weight.W.Data()
	inData, outData := in.Data(), out.Data()
	inPer, outPer := sampleElems(inShape), c.OutC*outSpatial
	for b := 0; b < batch; b++ {
		img := inData[b*inPer : (b+1)*inPer]
		dst := outData[b*outPer : (b+1)*outPer]
		for grp := 0; grp < c.Groups; grp++ {
			tensor.Im2col(groupGeom, img[grp*gInC*g.Height*g.Width:(grp+1)*gInC*g.Height*g.Width], col)
			// Filter matrix [gOutC, kTaps] × col [kTaps, outSpatial].
			tensor.GemmParallel(ctx.workers(), gOutC, outSpatial, kTaps, 1,
				w[grp*gOutC*kTaps:(grp+1)*gOutC*kTaps], col,
				0, dst[grp*gOutC*outSpatial:(grp+1)*gOutC*outSpatial])
		}
		if fuseReLU {
			tensor.AddBiasRowsReLU(c.OutC, outSpatial, dst, c.Bias.W.Data())
		} else {
			tensor.AddBiasRows(c.OutC, outSpatial, dst, c.Bias.W.Data())
		}
	}
}

// Backward implements BackLayer.
func (c *Conv) Backward(ctx *Ctx, in, out, dout, din *tensor.Tensor) {
	batch := in.Dim(0)
	inShape := in.Shape()[1:]
	g := c.geom(inShape)
	outH, outW := g.OutH(), g.OutW()
	outSpatial := outH * outW
	gInC := c.InC / c.Groups
	gOutC := c.OutC / c.Groups
	kTaps := gInC * c.KernelH * c.KernelW
	groupGeom := g
	groupGeom.Channels = gInC
	w := c.Weight.W.Data()
	gw := c.Weight.EnsureGrad().Data()
	gb := c.Bias.EnsureGrad().Data()
	inPer, outPer := sampleElems(inShape), c.OutC*outSpatial
	col := ctx.scratch(2 * kTaps * outSpatial)
	colFwd := col[:kTaps*outSpatial]
	colBack := col[kTaps*outSpatial:]
	din.Zero()
	for b := 0; b < batch; b++ {
		img := in.Data()[b*inPer : (b+1)*inPer]
		dImg := din.Data()[b*inPer : (b+1)*inPer]
		dOut := dout.Data()[b*outPer : (b+1)*outPer]
		// Bias gradient: sum over spatial positions per channel.
		for oc := 0; oc < c.OutC; oc++ {
			gb[oc] += tensor.Sum(dOut[oc*outSpatial : (oc+1)*outSpatial])
		}
		for grp := 0; grp < c.Groups; grp++ {
			imgG := img[grp*gInC*g.Height*g.Width : (grp+1)*gInC*g.Height*g.Width]
			dImgG := dImg[grp*gInC*g.Height*g.Width : (grp+1)*gInC*g.Height*g.Width]
			dOutG := dOut[grp*gOutC*outSpatial : (grp+1)*gOutC*outSpatial]
			wG := w[grp*gOutC*kTaps : (grp+1)*gOutC*kTaps]
			gwG := gw[grp*gOutC*kTaps : (grp+1)*gOutC*kTaps]
			// dW += dOut × col(x)^T  → use GemmNaive-style via transposed args:
			// dW [gOutC, kTaps] = dOutG [gOutC, outSpatial] × colFwd^T [outSpatial, kTaps].
			tensor.Im2col(groupGeom, imgG, colFwd)
			gemmABt(gOutC, kTaps, outSpatial, dOutG, colFwd, gwG)
			// dcol = W^T × dOut → [kTaps, outSpatial].
			gemmAtB(kTaps, outSpatial, gOutC, wG, dOutG, colBack)
			tensor.Col2im(groupGeom, colBack, dImgG)
		}
	}
}

// gemmABt computes C += A(m×k) * B(n×k)^T, i.e. C is m×n.
func gemmABt(m, n, k int, a, b, c []float32) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			crow[j] += tensor.Dot(arow, b[j*k:(j+1)*k])
		}
	}
}

// gemmAtB computes C = A(k×m)^T * B(k×n), i.e. C is m×n (overwrites C).
func gemmAtB(m, n, k int, a, b, c []float32) {
	for i := range c[:m*n] {
		c[i] = 0
	}
	for kk := 0; kk < k; kk++ {
		arow := a[kk*m : (kk+1)*m]
		brow := b[kk*n : (kk+1)*n]
		for i := 0; i < m; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			crow := c[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				crow[j] += av * brow[j]
			}
		}
	}
}

// Kernels implements Layer. The Caffe lowering launches an im2col
// kernel, a GEMM and a bias kernel per layer (batched across images).
func (c *Conv) Kernels(in []int, batch int, ks []Kernel) []Kernel {
	g := c.geom(in)
	outSpatial := g.OutH() * g.OutW()
	gInC := c.InC / c.Groups
	kTaps := gInC * c.KernelH * c.KernelW
	inBytes := float64(4 * sampleElems(in) * batch)
	colBytes := float64(4*kTaps*outSpatial*batch) * float64(c.Groups)
	outElems := c.OutC * outSpatial * batch
	weightBytes := float64(4 * c.Weight.W.Len())
	ks = append(ks, Kernel{
		Name:     c.name + ".im2col",
		FLOPs:    0,
		BytesIn:  inBytes,
		BytesOut: colBytes,
		Threads:  kTaps * outSpatial * batch * c.Groups,
		Calls:    batch * c.Groups,
	})
	gOutC := c.OutC / c.Groups
	ks = append(ks, Kernel{
		Name:      c.name + ".gemm",
		FLOPs:     2 * float64(kTaps) * float64(outSpatial) * float64(c.OutC) * float64(batch),
		BytesIn:   weightBytes + colBytes,
		BytesOut:  float64(4 * outElems),
		Threads:   c.Groups * GemmThreads(gOutC, outSpatial*batch),
		Calls:     batch * c.Groups,
		GemmM:     gOutC,
		GemmN:     outSpatial * batch,
		GemmCount: c.Groups,
	})
	ks = append(ks, Kernel{
		Name:     c.name + ".bias",
		FLOPs:    float64(outElems),
		BytesIn:  float64(4*outElems) + float64(4*c.OutC),
		BytesOut: float64(4 * outElems),
		Threads:  outElems,
	})
	return ks
}
