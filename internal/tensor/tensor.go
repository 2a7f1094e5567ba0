// Package tensor provides dense float32 tensors and the linear-algebra
// kernels (GEMM, GEMV, im2col) that back the neural-network engine.
//
// Tensors use row-major layout. Convolutional data uses NCHW order
// (batch, channel, height, width), matching the Caffe conventions the
// paper's DjiNN service builds on.
package tensor

import (
	"fmt"
	"strings"
)

// Tensor is a dense float32 array with a shape. The zero value is not
// usable; construct tensors with New or FromSlice.
type Tensor struct {
	shape []int
	data  []float32
}

// New allocates a zero-filled tensor with the given shape. Every
// dimension must be positive.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float32, n)}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d elements)", len(data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// BatchViews wraps the front of data in n tensors, one per batch size:
// view b-1 has shape [b, sample...] over data[:b*per], per being the
// sample's element count. The n views share three allocations however
// large n is.
func BatchViews(data []float32, sample []int, n int) []*Tensor {
	per := checkShape(sample)
	if n < 1 || len(data) < n*per {
		panic(fmt.Sprintf("tensor: %d floats cannot hold %d samples of %v", len(data), n, sample))
	}
	rank := len(sample) + 1
	ts := make([]Tensor, n)
	shapes := make([]int, n*rank)
	views := make([]*Tensor, n)
	for b := 1; b <= n; b++ {
		s := shapes[(b-1)*rank : b*rank : b*rank]
		s[0] = b
		copy(s[1:], sample)
		ts[b-1] = Tensor{shape: s, data: data[:b*per]}
		views[b-1] = &ts[b-1]
	}
	return views
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Shape returns the tensor's dimensions. The returned slice must not be
// modified.
func (t *Tensor) Shape() []int { return t.shape }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the underlying storage. Mutating it mutates the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.offset(idx)] }

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Reshape returns a view of the tensor with a new shape sharing the same
// storage. The element count must be unchanged.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elements) to %v (%d elements)", t.shape, len(t.data), shape, n))
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's elements into t. Shapes must have equal element
// counts (shapes themselves may differ, e.g. a flattened view).
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(src.data) != len(t.data) {
		panic(fmt.Sprintf("tensor: copy size mismatch %v vs %v", src.shape, t.shape))
	}
	copy(t.data, src.data)
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// String renders a short description (shape and a few leading values),
// mainly for debugging and error messages.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v[", t.shape)
	n := len(t.data)
	if n > 8 {
		n = 8
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if n < len(t.data) {
		b.WriteString(", …")
	}
	b.WriteString("]")
	return b.String()
}
