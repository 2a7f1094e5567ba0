package nn

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"testing"

	"djinn/internal/tensor"
)

// zooNet exercises every in-place class the planner distinguishes:
// fusable conv+relu and fc+relu pairs, LRN (not in-place), pooling
// (shape change), grouped conv, sigmoid/hardtanh (in-place, unfused),
// dropout and softmax.
func zooNet(seed uint64) *Net {
	rng := tensor.NewRNG(seed)
	n := NewNet("zoo", KindCNN, 2, 8, 8)
	n.Add(NewConv("conv1", rng, 2, 4, 3, ConvOpt{Pad: 1})).
		Add(NewReLU("relu1")).
		Add(NewLRN("lrn1", 3, 0, 0, 0)).
		Add(NewPool("pool1", MaxPool, 2, 2, 0)).
		Add(NewConv("conv2", rng, 4, 6, 3, ConvOpt{Pad: 1, Groups: 2})).
		Add(NewSigmoid("sig1")).
		Add(NewPool("pool2", AvgPool, 2, 2, 0)).
		Add(NewFC("fc1", rng, 6*2*2, 16)).
		Add(NewReLU("relu2")).
		Add(NewDropout("drop1", 0.5)).
		Add(NewFC("fc2", rng, 16, 12)).
		Add(NewHardTanh("ht1")).
		Add(NewFC("fc3", rng, 12, 10)).
		Add(NewSoftmax("prob"))
	return n
}

// wideFCNet puts its first FC layer just over fcTileMinBytes, so it runs
// the batched tile, with In mod 4 = 1 and Out mod 4 = 3 to reach the
// tile's scalar tail and one-row path; the second FC stays per-sample.
func wideFCNet(seed uint64) *Net {
	rng := tensor.NewRNG(seed)
	n := NewNet("wide-fc", KindDNN, 301)
	n.Add(NewFC("fc1", rng, 301, 871)).
		Add(NewReLU("relu1")).
		Add(NewFC("fc2", rng, 871, 12)).
		Add(NewSoftmax("prob"))
	return n
}

func randInput(n *Net, batch int, seed uint64) *tensor.Tensor {
	in := tensor.New(append([]int{batch}, n.InShape()...)...)
	tensor.NewRNG(seed).FillNorm(in.Data(), 0, 1)
	return in
}

// TestPlanMatchesRunnerBitIdentical drives plans through batch
// sequences that climb, shrink and jump to capacity. Every output must be
// bit-identical to a reference built for that batch alone (a Runner; at
// Int8, a fresh Int8 plan), whether the input arrives through Forward or
// is gathered into In before Run.
func TestPlanMatchesRunnerBitIdentical(t *testing.T) {
	const maxBatch = 9
	seqs := [][]int{{1, 2, 3, 4, 5}, {1, 5, 2, maxBatch, 3}, {4, 4, 1, 8, 9, 2}, {maxBatch, 1, 7}}
	for _, build := range []func(uint64) *Net{smallCNN, zooNet} {
		n := build(3)
		for _, prec := range []Precision{Float32, Int8} {
			for _, workers := range []int{1, 2, 4} {
				for _, seq := range seqs {
					plan := n.CompileOpts(maxBatch, CompileOpts{Workers: workers, Precision: prec})
					for step, batch := range seq {
						in := randInput(n, batch, uint64(10*step+batch))
						var want *tensor.Tensor
						if prec == Float32 {
							want = n.NewRunner(batch).Forward(in)
						} else {
							want = n.CompileOpts(batch, CompileOpts{Precision: prec}).Forward(in)
						}
						var got *tensor.Tensor
						if step%2 == 0 {
							got = plan.Forward(in)
						} else {
							copy(plan.In(batch).Data(), in.Data())
							got = plan.Run(batch)
						}
						if !shapeEq(got.Shape(), want.Shape()) {
							t.Fatalf("%s %v seq %v step %d: shape %v, want %v", n.Name(), prec, seq, step, got.Shape(), want.Shape())
						}
						for i := range got.Data() {
							if got.Data()[i] != want.Data()[i] {
								t.Fatalf("%s %v workers=%d seq %v step %d (batch %d): out[%d]=%v, want %v (must be bit-identical)",
									n.Name(), prec, workers, seq, step, batch, i, got.Data()[i], want.Data()[i])
							}
						}
					}
				}
			}
		}
	}
}

func TestPlanFusesAndAliases(t *testing.T) {
	n := zooNet(4)
	plan := n.Compile(2)
	fused, skipped, inplace := 0, 0, 0
	for i, st := range plan.steps {
		if st.fuse != nil {
			fused++
		}
		if st.skip {
			skipped++
		}
		if !st.skip && plan.slots[i+1] == plan.slots[i] {
			inplace++
		}
	}
	// conv1+relu1 and fc1+relu2 fuse; sig1, drop1, ht1, prob run in place.
	if fused != 2 || skipped != 2 {
		t.Fatalf("fused=%d skipped=%d, want 2 and 2", fused, skipped)
	}
	if inplace != 4 {
		t.Fatalf("in-place steps = %d, want 4 (sigmoid, dropout, hardtanh, softmax)", inplace)
	}
	// Retain mode disables all of it and gives every activation its own slot.
	retain := n.CompileOpts(2, CompileOpts{Retain: true})
	for i, st := range retain.steps {
		if st.fuse != nil || st.skip {
			t.Fatalf("retain plan step %d still fused/skipped", i)
		}
		if retain.slots[i+1] != i+1 {
			t.Fatalf("retain plan slot[%d]=%d, want %d", i+1, retain.slots[i+1], i+1)
		}
	}
}

func TestPlanActivationMemoryShrinks(t *testing.T) {
	n := zooNet(5)
	const maxBatch = 8
	plan := n.Compile(maxBatch)
	seed := n.ActivationBytes(maxBatch)
	got := plan.ActivationBytes()
	if got >= seed {
		t.Fatalf("plan activation bytes %d, seed layout %d: ping-pong aliasing saved nothing", got, seed)
	}
	if ratio := float64(seed) / float64(got); ratio < 1.5 {
		t.Fatalf("activation memory ratio %.2f, want ≥ 1.5 for a relu-heavy net", ratio)
	}
	// Retain-mode plans keep the full seed layout.
	if rb := n.CompileOpts(maxBatch, CompileOpts{Retain: true}).ActivationBytes(); rb != seed {
		t.Fatalf("retain plan activation bytes %d, want seed layout %d", rb, seed)
	}
}

func TestPlanZeroAllocSteadyState(t *testing.T) {
	for _, build := range []func(uint64) *Net{smallCNN, zooNet, wideFCNet} {
		n := build(6)
		plan := n.Compile(16)
		plan.Forward(randInput(n, 5, 1)) // high-water batch 5
		for b := 1; b <= 5; b++ {
			in := randInput(n, b, uint64(b))
			if allocs := testing.AllocsPerRun(20, func() { plan.Forward(in) }); allocs != 0 {
				t.Fatalf("%s batch %d: %.1f allocs per forward on the serial plan path, want 0", n.Name(), b, allocs)
			}
		}
		if plan.hw != 5 {
			t.Fatalf("%s: high-water batch %d after batches ≤ 5, want 5", n.Name(), plan.hw)
		}
	}
}

// TestFCTiledMatchesPerSampleGemv: a layer at or above fcTileMinBytes
// runs the batched tile, and its output — the bias and fused ReLU
// epilogues included — is bit-identical to one tensor.Gemv per sample
// followed by the same epilogue, at every batch size and worker count.
func TestFCTiledMatchesPerSampleGemv(t *testing.T) {
	n := wideFCNet(17)
	fc := n.layers[0].(*FC)
	if !fc.tiled() || n.layers[2].(*FC).tiled() {
		t.Fatalf("fc1 tiled = %v, fc2 tiled = %v; want only fc1 (%d bytes) on the tile", fc.tiled(), n.layers[2].(*FC).tiled(), 4*fc.In*fc.Out)
	}
	w, bias := fc.Weight.W.Data(), fc.Bias.W.Data()
	for _, batch := range []int{1, 7, 8, 9, 17} {
		in := randInput(n, batch, uint64(batch))
		for _, relu := range []bool{false, true} {
			want := make([]float32, batch*fc.Out)
			for b := 0; b < batch; b++ {
				tensor.Gemv(fc.Out, fc.In, 1, w, in.Data()[b*fc.In:(b+1)*fc.In], 0, want[b*fc.Out:(b+1)*fc.Out])
			}
			if relu {
				tensor.AddBiasReLU(batch, fc.Out, want, bias)
			} else {
				tensor.AddBias(batch, fc.Out, want, bias)
			}
			for _, workers := range []int{1, 2, 3} {
				ctx := NewCtx(1)
				ctx.Workers = workers
				out := tensor.New(batch, fc.Out)
				fc.forward(ctx, in, out, relu)
				for i, v := range out.Data() {
					if math.Float32bits(v) != math.Float32bits(want[i]) {
						t.Fatalf("batch %d relu %v workers %d: out[%d] = %v, per-sample Gemv %v", batch, relu, workers, i, v, want[i])
					}
				}
			}
		}
	}
}

// TestPlanRecoversFromHostileQuery: an input that overflows to ±Inf
// leaves non-finite values in a plan's arenas, which the next query's
// FC layers overwrite. A layer that read its stale output (0·Inf is
// NaN) would return NaN for every later query; each one must instead
// match a fresh plan's bits.
func TestPlanRecoversFromHostileQuery(t *testing.T) {
	rng := tensor.NewRNG(21)
	n := NewNet("fc-stack", KindDNN, 4)
	n.Add(NewFC("fc1", rng, 4, 8)).
		Add(NewReLU("relu1")).
		Add(NewFC("fc2", rng, 8, 8)).
		Add(NewReLU("relu2")).
		Add(NewFC("fc3", rng, 8, 2))
	hostile := tensor.FromSlice([]float32{3e38, -3e38, 3e38, -3e38}, 1, 4)
	normal := tensor.FromSlice([]float32{0.5, -1, 2, 0.25}, 1, 4)
	for _, workers := range []int{1, 2} {
		opts := CompileOpts{Workers: workers}
		want := n.CompileOpts(1, opts).Forward(normal).Data()
		plan := n.CompileOpts(1, opts)
		plan.Forward(hostile)
		for q := 0; q < 3; q++ {
			got := plan.Forward(normal).Data()
			for i := range want {
				if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
					t.Fatalf("workers %d, query %d after the hostile one: %v, fresh plan %v", workers, q, got, want)
				}
			}
		}
	}
}

// TestPlanGrowthBound climbs one batch at a time to capacity, the worst
// case for the doubling rule, and counts how often the plan builds its
// batch-sized state: at most ⌈log₂ maxBatch⌉+1 times, Compile included.
func TestPlanGrowthBound(t *testing.T) {
	n := smallCNN(13)
	for _, maxBatch := range []int{1, 2, 7, 64, 100, 1096} {
		plan := n.CompileOpts(maxBatch, CompileOpts{Precision: Int8})
		builds := 1
		for b := 1; b <= maxBatch; b++ {
			hw := plan.hw
			plan.In(b)
			if plan.hw != hw {
				builds++
			}
		}
		if bound := bits.Len(uint(maxBatch-1)) + 1; builds > bound {
			t.Fatalf("maxBatch %d: %d builds, want ≤ %d", maxBatch, builds, bound)
		}
		if plan.hw != maxBatch || len(plan.qASum) != maxBatch {
			t.Fatalf("maxBatch %d: high-water %d, int8 FC rows %d after running every batch", maxBatch, plan.hw, len(plan.qASum))
		}
	}
}

// TestPlanCompileHoldsOneSample: a plan compiled for a large batch cap
// holds one sample's arenas until it runs, then just what it ran, while
// ActivationBytes keeps reporting the at-capacity figure.
func TestPlanCompileHoldsOneSample(t *testing.T) {
	n := zooNet(14)
	const maxBatch = 1096
	plan := n.CompileOpts(maxBatch, CompileOpts{Precision: Int8})
	var perSample int64
	for s, a := range plan.arenas {
		if len(a) != plan.slotElems[s] {
			t.Fatalf("fresh plan: arena %d holds %d floats, want one sample's %d", s, len(a), plan.slotElems[s])
		}
		perSample += int64(4 * len(a))
	}
	if len(plan.qASum) != 1 {
		t.Fatalf("fresh plan: int8 FC scratch has %d rows, want 1", len(plan.qASum))
	}
	if got, want := plan.ActivationBytes(), maxBatch*perSample; got != want {
		t.Fatalf("ActivationBytes %d, want the at-capacity %d", got, want)
	}
	plan.Forward(randInput(n, 12, 1))
	for s, a := range plan.arenas {
		if len(a) != 12*plan.slotElems[s] {
			t.Fatalf("after a 12-sample batch: arena %d holds %d floats, want %d", s, len(a), 12*plan.slotElems[s])
		}
	}
}

func TestPlanInRunZeroCopyEntry(t *testing.T) {
	n := smallCNN(7)
	plan := n.Compile(3)
	runner := n.NewRunner(3)
	in := randInput(n, 2, 9)
	want := runner.Forward(in)
	// Gather straight into the plan's input arena, then Run.
	copy(plan.In(2).Data(), in.Data())
	got := plan.Run(2)
	for i := range got.Data() {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("In+Run out[%d]=%v, runner %v", i, got.Data()[i], want.Data()[i])
		}
	}
	// Forward with the input view itself must detect aliasing, skip the
	// overlapping copy, and still produce the same result. (smallCNN's
	// plan never writes the input arena, so the gather above is intact.)
	got = plan.Forward(plan.In(2))
	for i := range got.Data() {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("aliased Forward out[%d]=%v, runner %v", i, got.Data()[i], want.Data()[i])
		}
	}
}

func TestPlanConcurrentCheckoutsOverSharedNet(t *testing.T) {
	// Race-stress (run under -race in CI): many plans over one shared
	// Net forwarding concurrently, with intra-op workers enabled, must
	// neither race on the weights nor corrupt each other's results.
	n := zooNet(8)
	const maxBatch = 6
	ref := n.NewRunner(maxBatch)
	inputs := make([]*tensor.Tensor, maxBatch)
	wants := make([][]float32, maxBatch)
	for b := 1; b <= maxBatch; b++ {
		inputs[b-1] = randInput(n, b, uint64(100+b))
		wants[b-1] = append([]float32(nil), ref.Forward(inputs[b-1]).Data()...)
	}
	const goroutines = 8
	pool := make(chan *Plan, goroutines)
	for i := 0; i < goroutines; i++ {
		pool <- n.CompileOpts(maxBatch, CompileOpts{Workers: 2})
	}
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 30; it++ {
				b := (g+it)%maxBatch + 1
				plan := <-pool
				out := plan.Forward(inputs[b-1])
				for i, v := range out.Data() {
					if v != wants[b-1][i] {
						pool <- plan
						errCh <- fmt.Errorf("goroutine %d iter %d batch %d: out[%d]=%v want %v", g, it, b, i, v, wants[b-1][i])
						return
					}
				}
				pool <- plan
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

func TestPlanBatchValidation(t *testing.T) {
	n := smallCNN(9)
	plan := n.Compile(2)
	for _, fn := range []func(){
		func() { plan.In(0) },
		func() { plan.In(3) },
		func() { plan.Run(3) },
		func() { plan.Forward(randInput(n, 3, 1)) },
		func() { n.Compile(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
	// Wrong per-sample shape with a legal batch.
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape-mismatch panic")
		}
	}()
	plan.Forward(tensor.New(2, 3))
}

// planOnlyLayer is a Layer outside the standard zoo: the planner must
// fall back to its defaults (no fusion, no in-place, lazily grown
// scratch) and still execute it correctly.
type planOnlyLayer struct{ dim int }

func (p *planOnlyLayer) Name() string                                  { return "custom" }
func (p *planOnlyLayer) Kind() string                                  { return "custom" }
func (p *planOnlyLayer) Params() []*Param                              { return nil }
func (p *planOnlyLayer) OutShape(in []int) ([]int, error)              { return in, nil }
func (p *planOnlyLayer) Kernels(in []int, b int, ks []Kernel) []Kernel { return ks }
func (p *planOnlyLayer) Forward(ctx *Ctx, in, out *tensor.Tensor) {
	s := ctx.scratch(p.dim) // grows lazily: planner knows nothing about it
	for i, v := range in.Data() {
		s[i%p.dim] = v
		out.Data()[i] = 2 * v
	}
}

func TestPlanHandlesUnknownLayerKinds(t *testing.T) {
	rng := tensor.NewRNG(10)
	n := NewNet("custom-net", KindDNN, 6)
	n.Add(NewFC("fc1", rng, 6, 6)).
		Add(&planOnlyLayer{dim: 6}).
		Add(NewReLU("relu1")). // relu after a non-fusable layer stays a real step
		Add(NewSoftmax("prob"))
	runner := n.NewRunner(2)
	plan := n.Compile(2)
	in := randInput(n, 2, 11)
	want := runner.Forward(in)
	got := plan.Forward(in)
	for i := range got.Data() {
		if got.Data()[i] != want.Data()[i] {
			t.Fatalf("custom layer out[%d]=%v, runner %v", i, got.Data()[i], want.Data()[i])
		}
	}
}
