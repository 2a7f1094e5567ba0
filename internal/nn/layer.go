// Package nn implements the neural-network engine underlying the DjiNN
// service: a layer zoo covering every layer type used by the Tonic Suite
// networks (convolution with groups, pooling, local response
// normalisation, fully-connected, locally-connected, the usual
// activations, dropout and softmax), a sequential Net with forward and
// backward passes, SGD training, model serialisation, and — crucially
// for the paper's performance study — per-layer kernel cost descriptors
// (FLOPs, DRAM bytes, launched threads) consumed by the CPU and GPU
// performance models.
package nn

import (
	"fmt"

	"djinn/internal/tensor"
)

// Param is a learnable parameter tensor together with its gradient
// accumulator (allocated lazily by the trainer).
type Param struct {
	Name string
	W    *tensor.Tensor
	Grad *tensor.Tensor
	// Q, when non-nil, is the pre-quantized form of W loaded from a model
	// file's quantized-weights section. Int8 plans use it directly
	// instead of re-quantizing W at Compile time; because exporters
	// produce it with the same tensor.QuantizeSymmetric the compiler
	// would run, the two paths are bit-identical.
	Q *QuantizedParam
}

// QuantizedParam is the int8 image of a parameter tensor under symmetric
// per-tensor quantization: W ≈ Scale · Data, zero point 0. Data is laid
// out exactly like W.Data() (and may alias a memory-mapped model file).
type QuantizedParam struct {
	Scale float32
	Data  []int8
}

// EnsureGrad allocates the gradient tensor if it does not exist yet.
func (p *Param) EnsureGrad() *tensor.Tensor {
	if p.Grad == nil {
		p.Grad = tensor.New(p.W.Shape()...)
	}
	return p.Grad
}

// Kernel describes one GPU kernel launch (or one CPU loop nest) worth of
// work in a layer's forward pass. The performance models consume these:
// FLOPs and DRAM bytes feed the roofline, Threads feeds the occupancy
// model, and the count of kernels feeds the launch-overhead model.
type Kernel struct {
	Name     string
	FLOPs    float64 // floating point operations
	BytesIn  float64 // DRAM bytes read (weights + activations)
	BytesOut float64 // DRAM bytes written
	Threads  int     // independent work items (one CUDA thread each)
	// GPUReplay is the DRAM transaction replay factor on GPUs for
	// kernels whose access pattern cannot coalesce (locally-connected
	// layers fetch a different filter per output location). Zero means
	// 1 (fully coalesced). CPU cores prefetch these same streams
	// sequentially, so the CPU model ignores it.
	GPUReplay float64
	// Calls is the number of library invocations the kernel's work is
	// split into on the CPU path: Caffe's CPU convolution loops
	// im2col+SGEMM per image (and per group), so ATLAS sees one
	// small-matrix call per sample while cuDNN sees one batched launch.
	// Zero means 1. The CPU model applies its efficiency curve and
	// per-call overhead at this granularity.
	Calls int
	// GemmM/GemmN describe the output matrix of a GEMM kernel, and
	// GemmCount the number of independent same-shape GEMMs batched into
	// the launch (grouped convolutions). The GPU model derives the
	// kernel's parallelism from cuBLAS-style output tiling over these
	// (choosing between a large-tile and a small-tile kernel); when
	// they are zero the kernel is element-wise and Threads is used
	// directly.
	GemmM, GemmN, GemmCount int
}

// CallCount returns the CPU invocation count (at least 1).
func (k Kernel) CallCount() int {
	if k.Calls < 1 {
		return 1
	}
	return k.Calls
}

// GemmThreads is a coarse single-number parallelism estimate for an
// m×n-output SGEMM (256-thread blocks over 128×64 or 32×32 output
// tiles, whichever launches more work). The GPU model refines this with
// a two-candidate tile choice from GemmM/GemmN; this helper serves
// call sites that only need a Threads figure. Tile quantisation is why
// a batch-1 AlexNet convolution (96 output channels → one tile row)
// leaves most of the GPU idle and why batching raises occupancy
// (Figure 7b).
func GemmThreads(m, n int) int {
	large := ((m + 127) / 128) * ((n + 63) / 64) * 256
	small := ((m + 31) / 32) * ((n + 31) / 32) * 256
	if small > large {
		return small
	}
	return large
}

// Replay returns the effective GPU replay factor (at least 1).
func (k Kernel) Replay() float64 {
	if k.GPUReplay < 1 {
		return 1
	}
	return k.GPUReplay
}

// Bytes returns the total DRAM traffic of the kernel.
func (k Kernel) Bytes() float64 { return k.BytesIn + k.BytesOut }

// Ctx carries per-runner scratch state so that a single Net (with its
// read-only weights) can be executed concurrently from many workers,
// mirroring DjiNN's shared in-memory model design.
type Ctx struct {
	// col is the one scratch buffer the layers share: conv columns in
	// panels, the large FC layers' batch panels (tensor.GemvBatch), int8
	// conv columns, locally-connected patches. No layer needs two at once.
	col   []float32
	rng   *tensor.RNG // dropout masks during training
	Train bool        // enables dropout
	// Workers is the intra-op parallelism knob: GEMM-backed layers
	// (conv, FC) split their output rows across this many goroutines,
	// each owning a disjoint row block so results stay bit-identical to
	// the serial kernels. Zero or 1 runs serial.
	Workers int
}

// NewCtx creates an execution context. seed controls dropout mask
// generation during training and has no effect on inference.
func NewCtx(seed uint64) *Ctx {
	return &Ctx{rng: tensor.NewRNG(seed)}
}

// scratch returns n floats of the shared scratch buffer, growing it
// only when it is too small.
func (c *Ctx) scratch(n int) []float32 {
	if cap(c.col) < n {
		c.col = make([]float32, n)
	}
	return c.col[:n]
}

// workers returns the effective intra-op worker count (at least 1).
func (c *Ctx) workers() int {
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

// Layer is one stage of a sequential network. Implementations must be
// safe for concurrent Forward calls as long as each call uses its own
// Ctx and in/out tensors; weights are only read.
type Layer interface {
	// Name returns the layer's unique name within its Net.
	Name() string
	// Kind returns the layer type ("conv", "fc", "relu", ...).
	Kind() string
	// OutShape returns the per-sample output shape for a per-sample
	// input shape, or an error if the input shape is incompatible.
	OutShape(in []int) ([]int, error)
	// Forward computes out from in; the leading dimension of both is
	// the batch.
	Forward(ctx *Ctx, in, out *tensor.Tensor)
	// Params returns the learnable parameters, or nil.
	Params() []*Param
	// Kernels appends this layer's forward-pass kernel descriptors for
	// the given per-sample input shape and batch size.
	Kernels(in []int, batch int, ks []Kernel) []Kernel
}

// fusedBiasReLU is implemented by layers (conv, FC) whose forward pass
// can fold an immediately-following ReLU into their bias epilogue: one
// pass over the output instead of bias-add plus a separate
// copy-and-clamp. Execution plans use it; results are bit-identical to
// Forward followed by the ReLU layer.
type fusedBiasReLU interface {
	Layer
	forwardReLU(ctx *Ctx, in, out *tensor.Tensor)
}

// BackLayer is implemented by layers that support backpropagation.
// Backward consumes the layer's forward input and output plus the
// gradient w.r.t. the output, writes the gradient w.r.t. the input into
// din, and accumulates parameter gradients.
type BackLayer interface {
	Layer
	Backward(ctx *Ctx, in, out, dout, din *tensor.Tensor)
}

func sampleElems(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func shapeErr(kind, name string, in []int, why string) error {
	return fmt.Errorf("nn: layer %s (%s): input shape %v: %s", name, kind, in, why)
}
