package experiments

import (
	"fmt"

	"djinn/internal/gpusim"
	"djinn/internal/models"
	"djinn/internal/workload"
)

// Extension experiment (not a paper figure): the latency/load curve of
// the DjiNN service under open-loop Poisson arrivals, through gpusim's
// model of the paper's size-or-2 ms-window batching policy (size
// threshold + window flush). The Go server does not batch this way:
// it is work-conserving, handing a pending batch to the first idle
// worker instead of waiting out the window. The paper evaluates
// throughput at saturation and latency per batch size; this adds the
// serving-systems view — where the latency elbow sits as offered load
// approaches the Figure 10 capacity.
type OpenLoopPoint struct {
	App       models.App
	Load      float64 // offered QPS
	LoadFrac  float64 // fraction of saturation capacity
	QPS       float64
	MeanLat   float64
	P99Lat    float64
	MeanBatch float64
}

// OpenLoopFracs is the swept fraction of saturation capacity.
var OpenLoopFracs = []float64{0.05, 0.25, 0.5, 0.75, 0.9, 1.05}

// OpenLoop sweeps offered load for one application on one GPU with the
// Table 3 batch size, 4 service workers and a 2ms aggregation window.
func (p Platform) OpenLoop(app models.App) []OpenLoopPoint {
	spec := workload.Get(app)
	capacity := p.ServerQPS(app, 1, OptimalMPSProcs, true, true).QPS
	kernels := func(q int) []gpusim.KernelWork {
		return p.GPU.Lower(spec.Kernels(q))
	}
	var pts []OpenLoopPoint
	for _, frac := range OpenLoopFracs {
		rate := capacity * frac
		// Simulate long enough for thousands of batches at this rate.
		horizon := 200000 / rate
		if horizon < 0.5 {
			horizon = 0.5
		}
		if horizon > 30 {
			horizon = 30
		}
		res := gpusim.SimulateOpenLoop(gpusim.OpenLoopConfig{
			Server: gpusim.ServerConfig{
				Device: p.GPU, GPUs: 1, ProcsPerGPU: OptimalMPSProcs, MPS: true,
				HostPCIeBW: p.HostPCIeBW, PCIeLatency: p.PCIeLatency,
			},
			ArrivalRate:   rate,
			BatchQueries:  spec.BatchSize,
			BatchWindow:   2e-3,
			BatchKernels:  kernels,
			BytesPerQuery: spec.WireBytes(),
			Seed:          uint64(app) + 1,
		}, horizon)
		pts = append(pts, OpenLoopPoint{
			App: app, Load: rate, LoadFrac: frac,
			QPS: res.QPS, MeanLat: res.MeanLat, P99Lat: res.P99,
			MeanBatch: res.MeanBatch,
		})
	}
	return pts
}

// RenderOpenLoop prints the latency/load study for a representative
// subset of applications.
func (p Platform) RenderOpenLoop() string {
	out := "Extension: open-loop latency vs offered load (1 GPU, 4 workers, 2ms window)\n"
	for _, app := range []models.App{models.POS, models.IMC, models.ASR} {
		t := &table{header: []string{"load (frac of capacity)", "offered QPS", "served QPS", "mean lat ms", "p99 lat ms", "mean batch"}}
		for _, pt := range p.OpenLoop(app) {
			t.add(fmt.Sprintf("%.2f", pt.LoadFrac), f1(pt.Load), f1(pt.QPS),
				f3(pt.MeanLat*1e3), f3(pt.P99Lat*1e3), f1(pt.MeanBatch))
		}
		out += fmt.Sprintf("\n[%s]\n%s", app, t.String())
	}
	return out
}
