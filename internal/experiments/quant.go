package experiments

import (
	"fmt"
	"runtime"
	"time"

	"djinn/internal/models"
	"djinn/internal/nn"
	"djinn/internal/tensor"
)

// The quant experiment measures the precision-pluggable kernel layer:
// the same compiled plan run at both precisions — float32 (the
// reference kernels) and int8 (symmetric weight quantization at compile
// time, int32 accumulation, dequantize fused into the bias+ReLU
// epilogue). Throughput is instances/sec through Plan.Forward; the
// accuracy column is top-1 agreement between the int8 and float32
// outputs over fresh random inputs, the gate the int8 path must hold
// (>= 0.99 per net) to be eligible for serving.

// QuantConfig selects the apps, batch size and measurement effort.
type QuantConfig struct {
	Apps  []models.App
	Batch int
	// Workers is the intra-op GEMM parallelism every plan is compiled
	// with. Zero means GOMAXPROCS.
	Workers int
	// AgreeBatches is how many fresh random batches feed the top-1
	// agreement comparison. Zero means 2.
	AgreeBatches int
	// MinTime is the minimum measured wall time per precision; MinIters
	// the minimum forward passes. Zero means the defaults (100ms, 1).
	MinTime  time.Duration
	MinIters int
}

func (c QuantConfig) withDefaults() QuantConfig {
	if len(c.Apps) == 0 {
		c.Apps = models.Apps
	}
	if c.Batch <= 0 {
		c.Batch = 8
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.AgreeBatches <= 0 {
		c.AgreeBatches = 2
	}
	if c.MinTime <= 0 {
		c.MinTime = 100 * time.Millisecond
	}
	if c.MinIters <= 0 {
		c.MinIters = 1
	}
	return c
}

// QuantCell is one application's row of the sweep.
type QuantCell struct {
	App   string `json:"app"`
	Batch int    `json:"batch"`

	F32QPS      float64 `json:"f32_qps"`      // instances/sec, float32 reference plan
	Int8QPS     float64 `json:"int8_qps"`     // instances/sec, int8 plan
	Int8Speedup float64 `json:"int8_speedup"` // Int8QPS / F32QPS

	F32Allocs  float64 `json:"f32_allocs"` // heap allocations per forward call
	Int8Allocs float64 `json:"int8_allocs"`

	// Agreement is raw int8-vs-float32 top-1 agreement. On untrained
	// random weights, deep many-class nets emit near-uniform outputs, so
	// the float32 argmax can sit a micro-probability above its runner-up;
	// DecisiveAgreement excludes those near-ties (float32 top-1/top-2
	// margin < decisiveMargin), the regime trained nets operate in.
	Agreement         float64 `json:"top1_agreement"`
	Compared          int     `json:"instances_compared"`
	DecisiveAgreement float64 `json:"top1_agreement_decisive"`
	DecisiveCompared  int     `json:"decisive_instances"`
	MaxAbsErr         float64 `json:"max_abs_err"` // max |int8 - f32| over all compared outputs
}

// decisiveMargin is the float32 top-1/top-2 gap below which an
// instance counts as a near-tie for DecisiveAgreement.
const decisiveMargin = 1e-5

// top2 returns the argmax class of row and the gap to the runner-up.
func top2(row []float32) (int, float32) {
	best, second := 0, -1
	for j := range row {
		switch {
		case j == best:
		case row[j] > row[best]:
			second, best = best, j
		case second < 0 || row[j] > row[second]:
			second = j
		}
	}
	if second < 0 {
		return best, 0
	}
	return best, row[best] - row[second]
}

// QuantSweep compiles each application's network at both
// precisions and measures throughput, allocations and int8 top-1
// agreement against the float32 reference.
func QuantSweep(cfg QuantConfig) []QuantCell {
	cfg = cfg.withDefaults()
	var cells []QuantCell
	for _, app := range cfg.Apps {
		net := models.BuildCached(app)
		in := tensor.New(append([]int{cfg.Batch}, net.InShape()...)...)
		rng := tensor.NewRNG(uint64(31*int(app) + cfg.Batch))

		f32 := net.CompileOpts(cfg.Batch, nn.CompileOpts{Workers: cfg.Workers})
		quant := net.CompileOpts(cfg.Batch, nn.CompileOpts{Workers: cfg.Workers, Precision: nn.Int8})

		cell := QuantCell{App: app.String(), Batch: cfg.Batch}
		var ref []float32
		for b := 0; b < cfg.AgreeBatches; b++ {
			rng.FillNorm(in.Data(), 0, 1)
			ref = append(ref[:0], f32.Forward(in).Data()...)
			got := quant.Forward(in).Data()
			per := len(ref) / cfg.Batch
			for i := 0; i < cfg.Batch; i++ {
				row, qrow := ref[i*per:(i+1)*per], got[i*per:(i+1)*per]
				ri, margin := top2(row)
				qi, _ := top2(qrow)
				for j := range row {
					if d := float64(row[j] - qrow[j]); d > cell.MaxAbsErr {
						cell.MaxAbsErr = d
					} else if -d > cell.MaxAbsErr {
						cell.MaxAbsErr = -d
					}
				}
				if ri == qi {
					cell.Agreement++
				}
				cell.Compared++
				if float64(margin) >= decisiveMargin {
					if ri == qi {
						cell.DecisiveAgreement++
					}
					cell.DecisiveCompared++
				}
			}
		}
		cell.Agreement /= float64(cell.Compared)
		if cell.DecisiveCompared > 0 {
			cell.DecisiveAgreement /= float64(cell.DecisiveCompared)
		}

		rng.FillNorm(in.Data(), 0, 1)
		f32FPS, f32Allocs := measure(cfg.MinTime, cfg.MinIters, func() { f32.Forward(in) })
		int8FPS, int8Allocs := measure(cfg.MinTime, cfg.MinIters, func() { quant.Forward(in) })

		cell.F32QPS = f32FPS * float64(cfg.Batch)
		cell.Int8QPS = int8FPS * float64(cfg.Batch)
		cell.Int8Speedup = cell.Int8QPS / cell.F32QPS
		cell.F32Allocs = f32Allocs
		cell.Int8Allocs = int8Allocs
		cells = append(cells, cell)
	}
	return cells
}

// measure times fn until both minimums are met and returns
// (forward calls per second, heap allocations per call).
func measure(minTime time.Duration, minIters int, fn func()) (float64, float64) {
	fn() // warm up: scratch growth, first-touch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	for {
		fn()
		iters++
		if iters >= minIters && time.Since(start) >= minTime {
			break
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / float64(iters)
	// ReadMemStats itself allocates nothing, but the timing calls may:
	// the two time.Since/Now pairs are alloc-free, so the delta is fn's.
	return float64(iters) / elapsed.Seconds(), allocs
}

// RenderQuant prints the precision comparison for all seven Tonic
// networks, the form `djinn-bench -exp quant` emits.
func RenderQuant() string {
	return RenderQuantCells(QuantSweep(QuantConfig{}))
}

// RenderQuantCells renders an already-run sweep (djinn-bench uses it
// to print the same cells it wrote as JSON).
func RenderQuantCells(cells []QuantCell) string {
	t := &table{header: []string{
		"app", "batch",
		"f32 q/s", "int8 q/s", "int8 x",
		"allocs f32/int8",
		"top-1 agree", "decisive", "max |err|", "n",
	}}
	for _, c := range cells {
		t.add(c.App, fmt.Sprintf("%d", c.Batch),
			f1(c.F32QPS), f1(c.Int8QPS), f2(c.Int8Speedup),
			fmt.Sprintf("%s/%s", f1(c.F32Allocs), f1(c.Int8Allocs)),
			f3(c.Agreement), f3(c.DecisiveAgreement),
			fmt.Sprintf("%.1e", c.MaxAbsErr),
			fmt.Sprintf("%d/%d", c.DecisiveCompared, c.Compared))
	}
	return fmt.Sprintf(
		"Quant: precision-pluggable plans, float32 reference vs int8 (GOMAXPROCS=%d)\n"+
			"int8: symmetric weight scales fixed at compile time, dynamic activation scales,\n"+
			"int32 accumulation, dequantize fused into the bias+ReLU epilogue.\n"+
			"\"decisive\" excludes instances whose float32 top-1/top-2 margin is under 1e-5 —\n"+
			"near-ties an untrained net's near-uniform output produces; the committed golden\n"+
			"fixtures (internal/models/testdata) pin the >= 0.99 top-1 serving gate in tier-1.\n%s",
		runtime.GOMAXPROCS(0), t.String())
}
