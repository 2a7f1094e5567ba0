package nn

import "fmt"

// Precision selects the kernel backend an execution plan routes its
// GEMM-backed layers (conv, FC) through. All other layers — pooling,
// LRN, locally-connected, activations, softmax — always run the float32
// reference kernels regardless of the plan's precision.
//
// The zero value is Float32, the reference backend, so existing callers
// of Compile/CompileOpts are unchanged.
type Precision uint8

const (
	// Float32 is the reference backend: the blocked float32 GEMM and
	// per-sample GEMV the repo has shipped since the plan layer landed,
	// with FC layers of at least 1 MiB of weights computing the whole
	// batch in one tensor.GemvBatch tile that forms every sample's sums
	// exactly as the per-sample GEMV does. Results are bit-identical to
	// the seed Runner path for any worker count — the compatibility
	// gate every other backend is measured against.
	Float32 Precision = iota

	// Float32Packed routes conv and FC through the panel-packed float32
	// GEMM: B packed into K×NR panels (convolution columns per call into
	// plan scratch, FC weights once per layer), A tiles packed into an
	// L1-resident microkernel. Convolution outputs are bit-identical to
	// Float32; FC outputs differ in float rounding only, because the
	// reference FC is a per-sample GEMV with a 4-wide unrolled sum (a
	// different association order).
	Float32Packed

	// Int8 routes conv and FC through the quantized backend: weights are
	// quantized once per layer at Compile time (symmetric per-tensor
	// scale, zero point 0), activations are quantized per call with a
	// dynamic scale, accumulation is exact 32-bit integer, and
	// dequantize+bias+ReLU fuse into one store. Integer accumulation is
	// associative, so int8 results are bit-identical across worker
	// counts by construction.
	Int8
)

// String implements fmt.Stringer with the names ParsePrecision accepts.
func (p Precision) String() string {
	switch p {
	case Float32:
		return "float32"
	case Float32Packed:
		return "float32-packed"
	case Int8:
		return "int8"
	}
	return fmt.Sprintf("precision(%d)", uint8(p))
}

// ParsePrecision parses a precision name as surfaced on config files and
// command-line flags. The empty string parses as Float32 so that absent
// config fields keep the reference behaviour.
func ParsePrecision(s string) (Precision, error) {
	switch s {
	case "", "float32", "fp32", "f32":
		return Float32, nil
	case "float32-packed", "packed":
		return Float32Packed, nil
	case "int8", "quant":
		return Int8, nil
	}
	return Float32, fmt.Errorf("nn: unknown precision %q (want float32, float32-packed or int8)", s)
}

// Precisions lists every backend in display order, for experiment sweeps
// and CLI help text.
func Precisions() []Precision {
	return []Precision{Float32, Float32Packed, Int8}
}
