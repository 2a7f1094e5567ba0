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
	// Float32 is the reference backend: convolutions write their im2col
	// columns straight into K×NR panels for the packed float32 GEMM
	// (tensor.GemmPacked, bias and fused ReLU in its store), and FC
	// layers run a per-sample GEMV, those with at least 1 MiB of weights
	// one tensor.GemvBatch tile for the whole batch that forms every
	// sample's sums exactly as the per-sample GEMV does. Results are
	// bit-identical to the seed Runner path for any worker count — the
	// compatibility gate the int8 backend is measured against.
	Float32 Precision = iota

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
	case "int8", "quant":
		return Int8, nil
	}
	return Float32, fmt.Errorf("nn: unknown precision %q (want float32 or int8)", s)
}
