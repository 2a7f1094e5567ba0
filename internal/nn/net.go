package nn

import (
	"fmt"

	"djinn/internal/tensor"
)

// NetKind mirrors Table 1's "Network Type" column.
type NetKind string

// Network types from Table 1.
const (
	KindCNN NetKind = "CNN"
	KindDNN NetKind = "DNN"
)

// Net is a sequential neural network: an input shape and an ordered list
// of layers whose shapes have been validated against each other. Weights
// are read-only after construction/loading, so a single Net may be
// shared by many concurrent Runners — the mechanism behind DjiNN's
// "load the model once, share it read-only across workers" design.
type Net struct {
	name    string
	kind    NetKind
	inShape []int // per-sample
	layers  []Layer
	shapes  [][]int // per-sample shape after each layer
}

// NewNet starts a network with a per-sample input shape, e.g. [3,227,227]
// for AlexNet or [440] for the Kaldi acoustic model.
func NewNet(name string, kind NetKind, inShape ...int) *Net {
	return &Net{
		name:    name,
		kind:    kind,
		inShape: append([]int(nil), inShape...),
	}
}

// Add appends a layer, validating that it accepts the current output
// shape. It returns n to allow chaining.
func (n *Net) Add(l Layer) *Net {
	cur := n.outShape()
	// FC and Softmax want flattened inputs; flatten implicitly, like
	// Caffe's InnerProduct does.
	next, err := l.OutShape(cur)
	if err != nil {
		if flat := []int{sampleElems(cur)}; len(cur) > 1 {
			if next2, err2 := l.OutShape(flat); err2 == nil {
				n.layers = append(n.layers, l)
				n.shapes = append(n.shapes, next2)
				return n
			}
		}
		panic(err)
	}
	n.layers = append(n.layers, l)
	n.shapes = append(n.shapes, next)
	return n
}

func (n *Net) outShape() []int {
	if len(n.shapes) == 0 {
		return n.inShape
	}
	return n.shapes[len(n.shapes)-1]
}

// Name returns the network's name (e.g. "alexnet").
func (n *Net) Name() string { return n.name }

// Kind returns CNN or DNN, per Table 1.
func (n *Net) Kind() NetKind { return n.kind }

// InShape returns the per-sample input shape.
func (n *Net) InShape() []int { return n.inShape }

// OutShape returns the per-sample output shape.
func (n *Net) OutShape() []int { return n.outShape() }

// Layers returns the layer list (read-only).
func (n *Net) Layers() []Layer { return n.layers }

// Shapes returns a copy of the per-sample output shape after each layer
// (the shapes validated by Add, with any implicit flattening applied).
func (n *Net) Shapes() [][]int {
	out := make([][]int, len(n.shapes))
	for i, s := range n.shapes {
		out[i] = append([]int(nil), s...)
	}
	return out
}

// LayerCount returns the number of compute layers the paper's Table 1
// counts: everything except the terminal softmax (Caffe's "prob" layer,
// which the paper's layer counts exclude).
func (n *Net) LayerCount() int {
	cnt := len(n.layers)
	if cnt > 0 && n.layers[cnt-1].Kind() == "softmax" {
		cnt--
	}
	return cnt
}

// Params returns all learnable parameters in layer order.
func (n *Net) Params() []*Param {
	var ps []*Param
	for _, l := range n.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ParamCount returns the total number of learnable scalar parameters
// (Table 1's "Parameters" column).
func (n *Net) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.W.Len()
	}
	return total
}

// WeightBytes returns the in-memory model size in bytes — what DjiNN
// keeps resident per application, and what must fit in the K40's 12 GB.
func (n *Net) WeightBytes() int64 { return int64(4 * n.ParamCount()) }

// Kernels returns the forward-pass kernel descriptors for the whole
// network at the given batch size.
func (n *Net) Kernels(batch int) []Kernel {
	var ks []Kernel
	cur := n.inShape
	for i, l := range n.layers {
		ks = l.Kernels(cur, batch, ks)
		cur = n.shapes[i]
	}
	return ks
}

// FLOPs returns the total forward-pass floating point operations at the
// given batch size.
func (n *Net) FLOPs(batch int) float64 {
	var total float64
	for _, k := range n.Kernels(batch) {
		total += k.FLOPs
	}
	return total
}

// Runner executes forward (and optionally backward) passes over one Net
// with privately-owned activation buffers. One Runner per worker thread;
// the Net's weights are shared. It is a thin wrapper over a Retain-mode
// execution plan (see Plan): every layer keeps its own activation buffer
// so Backward can consume them, and batch-limited views are built as
// the plan grows instead of allocated per Forward call.
type Runner struct {
	plan  *Plan
	grads []*tensor.Tensor // allocated on demand for training
}

// NewRunner creates an execution context for net able to process up to
// maxBatch samples per call.
func (n *Net) NewRunner(maxBatch int) *Runner {
	if maxBatch <= 0 {
		panic("nn: NewRunner: maxBatch must be positive")
	}
	return &Runner{plan: n.CompileOpts(maxBatch, CompileOpts{Retain: true})}
}

// Net returns the network this runner executes.
func (r *Runner) Net() *Net { return r.plan.net }

// MaxBatch returns the batch capacity.
func (r *Runner) MaxBatch() int { return r.plan.maxBatch }

// SetTrain toggles training mode (dropout active).
func (r *Runner) SetTrain(train bool) { r.plan.ctx.Train = train }

// Forward runs the network on input, whose leading dimension is the
// batch (1 ≤ batch ≤ maxBatch), and returns the output tensor
// [batch, outShape...]. The returned tensor is owned by the runner and
// valid until the next Forward call.
func (r *Runner) Forward(input *tensor.Tensor) *tensor.Tensor {
	return r.plan.Forward(input)
}

// view returns a batch-limited window over a max-batch activation buffer.
func view(t *tensor.Tensor, batch int) *tensor.Tensor {
	shape := t.Shape()
	per := 1
	for _, d := range shape[1:] {
		per *= d
	}
	newShape := append([]int{batch}, shape[1:]...)
	return tensor.FromSlice(t.Data()[:batch*per], newShape...)
}

// Backward backpropagates dOut (gradient w.r.t. the network output for
// the batch of the last Forward call) through every layer, accumulating
// parameter gradients. It panics if any layer does not support
// backpropagation.
func (r *Runner) Backward(dOut *tensor.Tensor) {
	net := r.plan.net
	batch := dOut.Dim(0)
	if r.grads == nil {
		r.grads = make([]*tensor.Tensor, len(net.layers)+1)
		r.grads[0] = tensor.New(append([]int{r.plan.maxBatch}, net.inShape...)...)
		for i := range net.layers {
			r.grads[i+1] = tensor.New(append([]int{r.plan.maxBatch}, net.shapes[i]...)...)
		}
	}
	cur := view(r.grads[len(net.layers)], batch)
	copy(cur.Data(), dOut.Data())
	acts := r.plan.views // retain mode: one buffer per activation
	for i := len(net.layers) - 1; i >= 0; i-- {
		bl, ok := net.layers[i].(BackLayer)
		if !ok {
			panic(fmt.Sprintf("nn: layer %s (%s) does not support backward", net.layers[i].Name(), net.layers[i].Kind()))
		}
		din := view(r.grads[i], batch)
		bl.Backward(r.plan.ctx, acts[i][batch-1], acts[i+1][batch-1], cur, din)
		cur = din
	}
}

// InputGrad returns the gradient w.r.t. the input from the last
// Backward call (used by tests).
func (r *Runner) InputGrad() *tensor.Tensor { return r.grads[0] }

// Summary renders a one-line-per-layer description of the network.
func (n *Net) Summary() string {
	s := fmt.Sprintf("%s (%s): input %v, %d layers, %d params (%.1f MB)\n",
		n.name, n.kind, n.inShape, n.LayerCount(), n.ParamCount(), float64(n.WeightBytes())/(1<<20))
	cur := n.inShape
	for i, l := range n.layers {
		np := 0
		for _, p := range l.Params() {
			np += p.W.Len()
		}
		s += fmt.Sprintf("  %-14s %-9s %v -> %v", l.Name(), l.Kind(), cur, n.shapes[i])
		if np > 0 {
			s += fmt.Sprintf("  (%d params)", np)
		}
		s += "\n"
		cur = n.shapes[i]
	}
	return s
}
