package nn

import (
	"fmt"
	"slices"

	"djinn/internal/tensor"
)

// Plan is a compile-once execution plan for one Net. Compile fixes the
// plan's wiring — step marking, fusion, arena slot assignment and the
// per-sample size of every slot, im2col scratch — and the batch-sized
// state (arenas, per-batch activation views, FC panel and int8 FC
// scratch) is built for the largest batch run so far, its high-water
// batch. A call with a larger batch regrows that state to max(batch,
// min(2×hw, maxBatch)), so a plan allocates it at most ⌈log₂ maxBatch⌉+1
// times, holds only what its traffic touches, and performs zero heap
// allocations at any batch up to its high-water mark. The plan also
// rewires execution for inference:
//
//   - Elementwise layers (ReLU, sigmoid, tanh, hardtanh, dropout,
//     softmax) run in place over their input buffer, and the remaining
//     layers ping-pong between two shared arenas, so a plan holds two
//     working activation buffers instead of one per layer.
//   - A conv or FC layer immediately followed by ReLU runs with the
//     activation fused into its bias epilogue, eliminating the ReLU
//     layer's full pass over the output.
//   - GEMM-backed layers split their output rows across Workers
//     goroutines (see Ctx.Workers).
//
// All three transformations preserve the serial per-element operation
// order, so plan outputs are bit-identical to the seed Runner path.
//
// A view returned by In, Out, Run or Forward is valid only until the
// next call with a larger batch than the plan has run: growth replaces
// the arenas it points into.
//
// A Plan owns private buffers and is NOT safe for concurrent use; the
// underlying Net's weights are shared read-only, so any number of plans
// may execute concurrently over one Net (DjiNN's load-once model). Use
// one plan per worker, or a checkout pool.
type Plan struct {
	net       *Net
	ctx       *Ctx
	maxBatch  int
	retain    bool
	precision Precision
	steps     []planStep
	shapes    [][]int // per-sample shape of every activation, input first
	slots     []int   // arena slot per activation (len(steps)+1)
	slotElems []int   // per-sample floats of each slot: its largest activation

	// Batch-sized state, built for the high-water batch hw by reserve.
	hw     int
	arenas [][]float32        // slot 0 is the input arena
	views  [][]*tensor.Tensor // views[i][b-1]: activation i as a [b,...] tensor

	// Packing scratch owned by the plan, sized at Compile by
	// buildBackend; nil at the reference precision. Weight-derived packed
	// operands live on the layers instead (see backend.go).
	packB []float32 // Float32Packed: im2col columns in K×NR panels
	qB    []uint8   // Int8: quantized im2col columns, offset panels
	qBSum []int32   // Int8: per-column signed sums for the B scratch
	qAK   int       // Int8: widest FC fan-in, the row length of qA
	qA    []uint64  // Int8: quantized FC activations, lane pairs (hw rows)
	qASum []int32   // Int8: per-row signed sums for the A scratch
	fcK   int       // Float32: widest tiled FC fan-in, sizing ctx's panels
}

type planStep struct {
	layer Layer
	fuse  fusedBiasReLU // non-nil: forward runs with the next ReLU fused in
	skip  bool          // output already produced by a fused predecessor
	// exec, when non-nil, runs the step through a precision backend
	// (packed float32 or int8 kernels) instead of layer.Forward; it
	// already honours fuse. Installed by buildBackend.
	exec func(in, out *tensor.Tensor)
}

// CompileOpts tunes plan compilation.
type CompileOpts struct {
	// Workers is the intra-op GEMM parallelism (Ctx.Workers). Zero or 1
	// runs the serial kernels.
	Workers int
	// Retain keeps every layer's activations in a private buffer and
	// disables in-place execution and ReLU fusion, exactly the seed
	// memory layout. Required for Backward; Runner compiles with it.
	Retain bool
	// Precision selects the kernel backend for conv and FC layers. The
	// zero value (Float32) is the reference path, bit-identical to the
	// seed. Retain-mode plans always compile at Float32 — Backward reads
	// float32 weights and the training path never routes through the
	// packed kernels.
	Precision Precision
}

// Compile builds an inference execution plan able to process up to
// maxBatch samples per call.
func (n *Net) Compile(maxBatch int) *Plan {
	return n.CompileOpts(maxBatch, CompileOpts{})
}

// CompileOpts builds an execution plan with explicit options.
func (n *Net) CompileOpts(maxBatch int, o CompileOpts) *Plan {
	if maxBatch <= 0 {
		panic("nn: Compile: maxBatch must be positive")
	}
	p := &Plan{
		net:      n,
		ctx:      NewCtx(uint64(0x5eed) + uint64(len(n.layers))),
		maxBatch: maxBatch,
		retain:   o.Retain,
		steps:    make([]planStep, len(n.layers)),
		slots:    make([]int, len(n.layers)+1),
	}
	p.ctx.Workers = o.Workers

	// Per-sample shape of every activation, input first.
	p.shapes = make([][]int, len(n.layers)+1)
	p.shapes[0] = n.inShape
	copy(p.shapes[1:], n.shapes)

	// Step marking: fused conv/FC+ReLU pairs and in-place elementwise
	// layers (inference only — Retain keeps the seed wiring for
	// Backward, which needs distinct in/out per layer).
	for i, l := range n.layers {
		p.steps[i].layer = l
		if o.Retain || p.steps[i].skip {
			continue
		}
		if fl, ok := l.(fusedBiasReLU); ok && i+1 < len(n.layers) {
			if act, ok := n.layers[i+1].(*Activation); ok && act.Kind() == "relu" {
				p.steps[i].fuse = fl
				p.steps[i+1].skip = true
			}
		}
	}

	// Arena slot assignment: the input lives in slot 0; non-in-place
	// layer outputs ping-pong between slots 1 and 2; in-place layers
	// (and fused-away ReLUs) stay on their input's slot. Retain mode
	// gives every activation its own slot.
	cur := 0
	for i := range n.layers {
		switch {
		case o.Retain:
			cur = i + 1
		case p.steps[i].skip || p.inPlace(i):
			// keep cur
		default:
			if cur == 1 {
				cur = 2
			} else {
				cur = 1
			}
		}
		p.slots[i+1] = cur
	}

	// Each slot holds, per sample, the largest activation assigned to it.
	p.slotElems = make([]int, slices.Max(p.slots)+1)
	for i, s := range p.slots {
		p.slotElems[s] = max(p.slotElems[s], sampleElems(p.shapes[i]))
	}

	// Size the shared im2col/patch scratch up front so no layer grows it
	// at run time. Custom layers outside the zoo still grow it lazily.
	scratch := 0
	for i, l := range n.layers {
		switch t := l.(type) {
		case *Conv:
			kTaps := (t.InC / t.Groups) * t.KernelH * t.KernelW
			outSpatial := p.shapes[i+1][1] * p.shapes[i+1][2]
			if need := kTaps * outSpatial; need > scratch {
				scratch = need
			}
		case *Local:
			if need := t.InC * t.Kernel * t.Kernel; need > scratch {
				scratch = need
			}
		}
	}
	if scratch > 0 {
		p.ctx.scratch(scratch)
	}

	// Route conv/FC steps through the selected kernel backend. Retain
	// compiles at the reference precision: training reads float32
	// weights and the seed memory layout.
	if o.Precision != Float32 && !o.Retain {
		p.precision = o.Precision
		p.buildBackend(o.Precision)
	} else {
		for _, l := range n.layers {
			if fc, ok := l.(*FC); ok && fc.tiled() {
				p.fcK = max(p.fcK, fc.In)
			}
		}
	}
	p.reserve(1)
	return p
}

// inPlace reports whether layer i may write its output over its input
// buffer: elementwise layers whose Forward never reads an element after
// writing it. LRN is excluded (each output reads a window of inputs
// across channels); pooling and the weighted layers change shape or
// need their full input.
func (p *Plan) inPlace(i int) bool {
	switch p.net.layers[i].(type) {
	case *Activation, *Dropout, *Softmax:
		return true
	}
	return false
}

// Net returns the network this plan executes.
func (p *Plan) Net() *Net { return p.net }

// MaxBatch returns the batch capacity.
func (p *Plan) MaxBatch() int { return p.maxBatch }

// Workers returns the intra-op worker count the plan was compiled with.
func (p *Plan) Workers() int { return p.ctx.workers() }

// Precision returns the kernel backend the plan was compiled with.
func (p *Plan) Precision() Precision { return p.precision }

// ActivationBytes returns the plan's activation memory at capacity: the
// sum of its arenas sized for maxBatch, whatever its high-water batch.
// With ping-pong aliasing this is roughly two large activations instead
// of the seed layout's one per layer (see Net.ActivationBytes for the
// latter).
func (p *Plan) ActivationBytes() int64 {
	var total int64
	for _, e := range p.slotElems {
		total += int64(4 * p.maxBatch * e)
	}
	return total
}

// reserve makes the batch-sized state hold batch samples, growing it to
// max(batch, min(2×hw, maxBatch)). Growth drops the previous arenas, so
// views handed out before it go stale.
func (p *Plan) reserve(batch int) {
	if batch < 1 || batch > p.maxBatch {
		panic(fmt.Sprintf("nn: Forward: batch %d out of range [1,%d]", batch, p.maxBatch))
	}
	if batch <= p.hw {
		return
	}
	p.hw = max(batch, min(2*p.hw, p.maxBatch))
	p.arenas = make([][]float32, len(p.slotElems))
	for s, e := range p.slotElems {
		p.arenas[s] = make([]float32, p.hw*e)
	}
	p.views = make([][]*tensor.Tensor, len(p.slots))
	for i, s := range p.slots {
		p.views[i] = tensor.BatchViews(p.arenas[s], p.shapes[i], p.hw)
	}
	if p.qAK > 0 {
		p.qA = make([]uint64, tensor.PackedAInt8Len(p.hw, p.qAK))
		p.qASum = make([]int32, p.hw)
	}
	if p.fcK > 0 {
		p.ctx.panels(tensor.PanelLen(p.hw, p.fcK))
	}
}

// In returns the plan's input buffer as a [batch, inShape...] view.
// Callers gather payloads directly into its Data() and then call Run —
// the zero-copy entry the service's batch path uses.
func (p *Plan) In(batch int) *tensor.Tensor {
	p.reserve(batch)
	return p.views[0][batch-1]
}

// Out returns the output view of the last Run at the given batch.
func (p *Plan) Out(batch int) *tensor.Tensor {
	p.reserve(batch)
	return p.views[len(p.slots)-1][batch-1]
}

// Run executes the forward pass over the first batch samples already
// gathered into In(batch), returning the output [batch, outShape...]
// tensor. The result is owned by the plan and valid until the next Run.
func (p *Plan) Run(batch int) *tensor.Tensor {
	p.reserve(batch)
	cur := p.views[0][batch-1]
	for i := range p.steps {
		st := &p.steps[i]
		out := p.views[i+1][batch-1]
		if st.skip {
			cur = out // aliases the fused predecessor's output
			continue
		}
		switch {
		case st.exec != nil:
			st.exec(cur, out)
		case st.fuse != nil:
			st.fuse.forwardReLU(p.ctx, cur, out)
		default:
			st.layer.Forward(p.ctx, cur, out)
		}
		cur = out
	}
	return cur
}

// Forward copies input into the plan's input buffer and runs the
// network, mirroring Runner.Forward. The copy is skipped when input
// already aliases In(batch) (a caller that gathered in place).
func (p *Plan) Forward(input *tensor.Tensor) *tensor.Tensor {
	batch := input.Dim(0)
	if wantPer := sampleElems(p.net.inShape); input.Len() != batch*wantPer {
		panic(fmt.Sprintf("nn: Forward: input %v does not match net input shape %v", input.Shape(), p.net.inShape))
	}
	src, d := input.Data(), p.In(batch).Data()
	if len(src) == 0 || len(d) == 0 || &src[0] != &d[0] {
		copy(d, src)
	}
	return p.Run(batch)
}

// ActivationBytes returns the activation memory of the seed layout at
// the given batch: one buffer per layer output plus the input, what a
// Retain-mode plan (and the original Runner) allocates. The ratio to
// Plan.ActivationBytes is the ping-pong saving.
func (n *Net) ActivationBytes(maxBatch int) int64 {
	total := int64(sampleElems(n.inShape))
	for _, s := range n.shapes {
		total += int64(sampleElems(s))
	}
	return 4 * int64(maxBatch) * total
}
