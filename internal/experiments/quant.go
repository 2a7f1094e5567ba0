package experiments

import (
	"fmt"
	"runtime"
	"slices"
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
	// MinPasses is the minimum number of timed forward passes per
	// precision and MinTime the minimum wall time of the whole timed
	// series; both must be met. Zero means the defaults (9 passes,
	// 100ms): a large net's ratio then rests on nine pairs of passes,
	// not on however many fit in 100ms.
	MinTime   time.Duration
	MinPasses int
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
	if c.MinPasses <= 0 {
		c.MinPasses = 9
	}
	return c
}

// QuantCell is one application's row of the sweep.
type QuantCell struct {
	App   string `json:"app"`
	Batch int    `json:"batch"`

	// Passes is the number of timed forward passes per precision. The
	// rates and the speedup are medians over passes, each with its
	// interquartile range [q1, q3]: the float32 and int8 passes
	// alternate, and the speedup of pass pair i is float32 time ÷ int8
	// time, so a slow spell on the host lands on both sides of a pair.
	Passes         int        `json:"passes"`
	F32QPS         float64    `json:"f32_qps"`  // instances/sec, float32 reference plan
	Int8QPS        float64    `json:"int8_qps"` // instances/sec, int8 plan
	Int8Speedup    float64    `json:"int8_speedup"`
	F32QPSIQR      [2]float64 `json:"f32_qps_iqr"`
	Int8QPSIQR     [2]float64 `json:"int8_qps_iqr"`
	Int8SpeedupIQR [2]float64 `json:"int8_speedup_iqr"`

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
		f32Secs, int8Secs, f32Allocs, int8Allocs := measurePair(cfg.MinTime, cfg.MinPasses,
			func() { f32.Forward(in) }, func() { quant.Forward(in) })
		batch := float64(cfg.Batch)
		rate := func(secs float64) float64 { return batch / secs }
		ratio := make([]float64, len(f32Secs))
		for i := range ratio {
			ratio[i] = f32Secs[i] / int8Secs[i]
		}
		// A rate falls as its time rises, so the time quartiles swap.
		f32Q, int8Q, ratioQ := quartiles(f32Secs), quartiles(int8Secs), quartiles(ratio)
		cell.Passes = len(f32Secs)
		cell.F32QPS, cell.F32QPSIQR = rate(f32Q[1]), [2]float64{rate(f32Q[2]), rate(f32Q[0])}
		cell.Int8QPS, cell.Int8QPSIQR = rate(int8Q[1]), [2]float64{rate(int8Q[2]), rate(int8Q[0])}
		cell.Int8Speedup, cell.Int8SpeedupIQR = ratioQ[1], [2]float64{ratioQ[0], ratioQ[2]}
		cell.F32Allocs = f32Allocs
		cell.Int8Allocs = int8Allocs
		cells = append(cells, cell)
	}
	return cells
}

// measurePair times a and b one pass each, alternately, until each has
// run at least minPasses timed passes and the series has run for
// minTime. It returns every pass's wall time in seconds per side and
// each side's heap allocations per call; the allocation count is read
// outside the timed region.
func measurePair(minTime time.Duration, minPasses int, a, b func()) (aSecs, bSecs []float64, aAllocs, bAllocs float64) {
	a() // warm up: scratch growth, first-touch
	b()
	var mallocs [2]uint64
	var ms runtime.MemStats
	pass := func(fn func(), side int) float64 {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		start := time.Now()
		fn()
		secs := time.Since(start).Seconds()
		runtime.ReadMemStats(&ms)
		mallocs[side] += ms.Mallocs - before
		return secs
	}
	start := time.Now()
	for len(aSecs) < minPasses || time.Since(start) < minTime {
		aSecs = append(aSecs, pass(a, 0))
		bSecs = append(bSecs, pass(b, 1))
	}
	n := float64(len(aSecs))
	return aSecs, bSecs, float64(mallocs[0]) / n, float64(mallocs[1]) / n
}

// quartiles returns the first quartile, the median and the third
// quartile of v (nearest rank), leaving v unchanged.
func quartiles(v []float64) [3]float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	at := func(q float64) float64 { return s[int(q*float64(len(s)-1)+0.5)] }
	return [3]float64{at(0.25), at(0.5), at(0.75)}
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
		"f32 q/s", "int8 q/s", "int8 x [q1, q3]", "passes",
		"allocs f32/int8",
		"top-1 agree", "decisive", "max |err|", "n",
	}}
	for _, c := range cells {
		t.add(c.App, fmt.Sprintf("%d", c.Batch),
			f1(c.F32QPS), f1(c.Int8QPS),
			fmt.Sprintf("%s [%s, %s]", f2(c.Int8Speedup), f2(c.Int8SpeedupIQR[0]), f2(c.Int8SpeedupIQR[1])),
			fmt.Sprintf("%d", c.Passes),
			fmt.Sprintf("%s/%s", f1(c.F32Allocs), f1(c.Int8Allocs)),
			f3(c.Agreement), f3(c.DecisiveAgreement),
			fmt.Sprintf("%.1e", c.MaxAbsErr),
			fmt.Sprintf("%d/%d", c.DecisiveCompared, c.Compared))
	}
	return fmt.Sprintf(
		"Quant: precision-pluggable plans, float32 reference vs int8 (GOMAXPROCS=%d)\n"+
			"int8: symmetric weight scales fixed at compile time, dynamic activation scales,\n"+
			"int32 accumulation, dequantize fused into the bias+ReLU epilogue.\n"+
			"Rates and speedups are medians over alternating float32/int8 passes.\n"+
			"\"decisive\" excludes instances whose float32 top-1/top-2 margin is under 1e-5 —\n"+
			"near-ties an untrained net's near-uniform output produces; the committed golden\n"+
			"fixtures (internal/models/testdata) pin the >= 0.99 top-1 serving gate in tier-1.\n%s",
		runtime.GOMAXPROCS(0), t.String())
}
