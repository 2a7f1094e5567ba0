package nn

import (
	"fmt"
	"sync"

	"djinn/internal/tensor"
)

// This file is the precision seam between the layer zoo and the int8
// kernels in internal/tensor. A plan compiled at Int8 installs an exec
// closure on each conv/FC step; Run routes through it instead of the
// layer's Forward. Everything a closure needs beyond its inputs —
// quantized weights with their zero-point sums, per-call packing
// scratch — is either cached on the layer (weight-derived, shared by
// every plan over the Net) or owned by the plan (activation-derived,
// private per plan), so the steady-state forward pass stays
// allocation-free.

// fcKernelCache holds the weight-derived operands of the int8 FC kernel.
// They depend only on the layer's (frozen, inference-time) weights, so
// they are built once under sync.Once and shared by all plans — the same
// load-once economics as the weights themselves.
type fcKernelCache struct {
	int8Once sync.Once
	int8BP   []uint8 // quantized W^T panels, offset encoding
	int8Col  []int32 // per-output-column signed weight sums
	int8W    float32 // weight scale
}

// convKernelCache holds the quantized weight form of a convolution: the
// per-group filter matrices packed as int8 lane-pair A operands.
type convKernelCache struct {
	int8Once sync.Once
	int8PA   []uint64 // Groups × paStride lane-pair words
	int8Row  []int32  // per-output-channel signed weight sums (len OutC)
	int8W    float32  // weight scale
	paStride int      // PackedAInt8Len(gOutC, kTaps)
}

// quantWeight quantizes a weight parameter, honouring a pre-quantized
// form loaded from a model file when present. Both paths run the same
// QuantizeSymmetric, so stored and on-the-fly weights are bit-identical.
func quantWeight(p *Param) ([]int8, float32) {
	if q := p.Q; q != nil {
		return q.Data, q.Scale
	}
	qw := make([]int8, p.W.Len())
	return qw, tensor.QuantizeSymmetric(p.W.Data(), qw)
}

// int8Weights returns the FC weight matrix quantized and packed for the
// int8 kernel, building it on first use.
func (f *FC) int8Weights() *fcKernelCache {
	f.kern.int8Once.Do(func() {
		qt, scale := quantWeight(f.Weight)
		bp := make([]uint8, tensor.PackedBInt8Len(f.In, f.Out))
		colSum := make([]int32, f.Out)
		tensor.PackBTInt8(f.In, f.Out, qt, bp, colSum)
		f.kern.int8BP, f.kern.int8Col, f.kern.int8W = bp, colSum, scale
	})
	return &f.kern
}

// int8Weights returns the convolution's filter groups quantized and
// packed for the int8 kernel, building them on first use.
func (c *Conv) int8Weights() *convKernelCache {
	c.kern.int8Once.Do(func() {
		gOutC := c.OutC / c.Groups
		kTaps := (c.InC / c.Groups) * c.KernelH * c.KernelW
		qw, scale := quantWeight(c.Weight)
		stride := tensor.PackedAInt8Len(gOutC, kTaps)
		pa := make([]uint64, c.Groups*stride)
		rowSum := make([]int32, c.OutC)
		for grp := 0; grp < c.Groups; grp++ {
			tensor.PackAInt8(gOutC, kTaps, qw[grp*gOutC*kTaps:(grp+1)*gOutC*kTaps],
				pa[grp*stride:(grp+1)*stride], rowSum[grp*gOutC:(grp+1)*gOutC])
		}
		c.kern.int8PA, c.kern.int8Row, c.kern.int8W, c.kern.paStride = pa, rowSum, scale, stride
	})
	return &c.kern
}

// GemmWeightNames returns the names of the parameters an Int8 plan
// quantizes: the weight matrices of conv and FC layers. Model exporters
// use it to decide which sections get a quantized twin on disk; biases
// and every other layer kind stay float32.
func (n *Net) GemmWeightNames() map[string]bool {
	names := make(map[string]bool)
	for _, l := range n.layers {
		switch t := l.(type) {
		case *Conv:
			names[t.Weight.Name] = true
		case *FC:
			names[t.Weight.Name] = true
		}
	}
	return names
}

// CheckPrecision reports whether the net can compile at prec. The only
// backend with a structural bound is Int8: its dual-lane kernel requires
// every GEMM reduction (conv filter taps, FC fan-in) to stay under
// tensor.MaxQuantK so the 32-bit accumulator lanes cannot overflow.
// Callers that accept a precision from configuration (the service's
// AppConfig) should check here and return the error instead of letting
// Compile panic.
func (n *Net) CheckPrecision(prec Precision) error {
	if prec != Int8 {
		return nil
	}
	for _, l := range n.layers {
		switch t := l.(type) {
		case *Conv:
			kTaps := (t.InC / t.Groups) * t.KernelH * t.KernelW
			if kTaps > tensor.MaxQuantK {
				return fmt.Errorf("nn: conv %s reduction %d exceeds int8 kernel bound %d", t.name, kTaps, tensor.MaxQuantK)
			}
		case *FC:
			if t.In > tensor.MaxQuantK {
				return fmt.Errorf("nn: fc %s reduction %d exceeds int8 kernel bound %d", t.name, t.In, tensor.MaxQuantK)
			}
		}
	}
	return nil
}

// buildBackend sizes the plan's int8 packing scratch and installs the
// int8 exec closure on every conv/FC step. Weight caches are resolved
// here, at Compile time, so the first Run pays nothing extra.
func (p *Plan) buildBackend() {
	if err := p.net.CheckPrecision(Int8); err != nil {
		panic("nn: Compile: " + err.Error())
	}
	// Activation-derived scratch, sized over all routed layers up front:
	// conv scratch is per sample; the FC scratch is per batch, so only
	// its row length is fixed here and reserve sizes it.
	var bLen, bCols int
	for i, l := range p.net.layers {
		switch t := l.(type) {
		case *Conv:
			kTaps := (t.InC / t.Groups) * t.KernelH * t.KernelW
			outSpatial := p.net.shapes[i][1] * p.net.shapes[i][2]
			bLen = max(bLen, tensor.PackedBInt8Len(kTaps, outSpatial))
			bCols = max(bCols, outSpatial)
		case *FC:
			p.qAK = max(p.qAK, t.In)
		}
	}
	p.qB = make([]uint8, bLen)
	p.qBSum = make([]int32, bCols)

	for i := range p.steps {
		st := &p.steps[i]
		if st.skip {
			continue
		}
		fuse := st.fuse != nil
		switch l := st.layer.(type) {
		case *FC:
			st.exec = l.int8Exec(p, fuse)
		case *Conv:
			st.exec = l.int8Exec(p, fuse)
		}
	}
}

// int8Exec builds the quantized step for an FC layer: the activation
// batch is quantized with a per-call dynamic scale and packed into the
// plan's lane-pair scratch, then multiplied against the layer's cached
// quantized weight panels; dequantize+bias(+ReLU) fuse into the store.
func (f *FC) int8Exec(p *Plan, fuse bool) func(in, out *tensor.Tensor) {
	kc := f.int8Weights()
	ep := tensor.EpBiasCol
	if fuse {
		ep = tensor.EpBiasColReLU
	}
	return func(in, out *tensor.Tensor) {
		batch := in.Dim(0)
		inD := in.Data()[:batch*f.In]
		scaleA := tensor.QuantScale(tensor.MaxAbs(inD))
		pa := p.qA[:tensor.PackedAInt8Len(batch, f.In)]
		rowSum := p.qASum[:batch]
		tensor.QuantizePackAInt8(batch, f.In, inD, scaleA, pa, rowSum)
		tensor.GemmPackedInt8Parallel(p.ctx.workers(), batch, f.Out, f.In,
			pa, rowSum, kc.int8BP, kc.int8Col, out.Data()[:batch*f.Out],
			scaleA*kc.int8W, ep, f.Bias.W.Data())
	}
}

// int8Exec builds the quantized step for a convolution: the im2col
// column matrix is quantized per call (dynamic activation scale from the
// group's input image — every column element is an image element or a
// padding zero, so the image max-abs covers it) and packed into the
// plan's offset-panel scratch, then multiplied against the group's
// cached quantized filters.
func (c *Conv) int8Exec(p *Plan, fuse bool) func(in, out *tensor.Tensor) {
	kc := c.int8Weights()
	ep := tensor.EpBiasRow
	if fuse {
		ep = tensor.EpBiasRowReLU
	}
	return func(in, out *tensor.Tensor) {
		batch := in.Dim(0)
		inShape := in.Shape()[1:]
		g := c.geom(inShape)
		outSpatial := g.OutH() * g.OutW()
		gInC := c.InC / c.Groups
		gOutC := c.OutC / c.Groups
		kTaps := gInC * c.KernelH * c.KernelW
		groupGeom := g
		groupGeom.Channels = gInC
		col := p.ctx.scratch(kTaps * outSpatial)
		bp := p.qB[:tensor.PackedBInt8Len(kTaps, outSpatial)]
		colSum := p.qBSum[:outSpatial]
		bias := c.Bias.W.Data()
		inData, outData := in.Data(), out.Data()
		inPer, outPer := sampleElems(inShape), c.OutC*outSpatial
		workers := p.ctx.workers()
		for b := 0; b < batch; b++ {
			img := inData[b*inPer : (b+1)*inPer]
			dst := outData[b*outPer : (b+1)*outPer]
			for grp := 0; grp < c.Groups; grp++ {
				imgG := img[grp*gInC*g.Height*g.Width : (grp+1)*gInC*g.Height*g.Width]
				scaleA := tensor.QuantScale(tensor.MaxAbs(imgG))
				tensor.Im2col(groupGeom, imgG, col)
				tensor.QuantizePackBInt8(kTaps, outSpatial, col, scaleA, bp, colSum)
				tensor.GemmPackedInt8Parallel(workers, gOutC, outSpatial, kTaps,
					kc.int8PA[grp*kc.paStride:(grp+1)*kc.paStride], kc.int8Row[grp*gOutC:(grp+1)*gOutC],
					bp, colSum, dst[grp*gOutC*outSpatial:(grp+1)*gOutC*outSpatial],
					scaleA*kc.int8W, ep, bias[grp*gOutC:(grp+1)*gOutC])
			}
		}
	}
}
