package tensor

import "runtime"

// minMappedBytes is the size from which NewParam backs a tensor with an
// anonymous mapping rather than the Go heap. A net's large conv/FC/local
// weights cross it, so each net holds a handful of mappings; biases,
// the NLP nets' weights and fuzz-sized nets stay below it, on the heap.
const minMappedBytes = 1 << 20

// NewParam allocates a zero-filled tensor for a long-lived parameter
// (a layer's weights). Data of at least minMappedBytes lives in an
// anonymous private mapping outside the Go heap: the weights are never
// garbage, so keeping them off the heap keeps them out of the
// collector's pacing, whose heap goal would otherwise be twice their
// size. Smaller tensors, platforms without mmap, and a failed mapping
// fall back to an ordinary heap slice.
//
// The mapping is released by a finalizer on the returned *Tensor, not
// by the data slice, which the collector does not trace. Every reader
// must therefore keep the tensor reachable while it uses Data(): reach
// the weights through the layer's Param.W while holding the layer, as
// every layer's forward pass does, and a compiled plan holds its net.
// Do not keep a weight's Data() slice, or a Reshape view of it, beyond
// the life of the tensor that owns it.
func NewParam(shape ...int) *Tensor {
	n := checkShape(shape)
	t := &Tensor{shape: append([]int(nil), shape...)}
	if 4*n >= minMappedBytes {
		if data, unmap := mapFloats(n); data != nil {
			t.data = data
			runtime.SetFinalizer(t, func(*Tensor) { unmap() })
			return t
		}
	}
	t.data = make([]float32, n)
	return t
}
