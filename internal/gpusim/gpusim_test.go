package gpusim

import (
	"math"
	"testing"
	"testing/quick"

	"djinn/internal/nn"
	"djinn/internal/sim"
)

func TestK40Spec(t *testing.T) {
	d := K40()
	// 2880 cores at 745 MHz, 2 FLOPs/cycle ≈ 4.29 TFLOPS.
	if math.Abs(d.PeakFLOPS-4.29e12) > 0.01e12 {
		t.Fatalf("peak %.3g, want ≈4.29e12", d.PeakFLOPS)
	}
	if d.MemBytes != 12<<30 {
		t.Fatal("K40 has 12 GB")
	}
	if d.SMs*d.MaxWarpsPerSM != 960 {
		t.Fatalf("resident warp capacity %d, want 960", d.SMs*d.MaxWarpsPerSM)
	}
}

func TestOccupancyMonotoneAndCapped(t *testing.T) {
	d := K40()
	if d.Occupancy(0) != 0 {
		t.Fatal("zero threads should be zero occupancy")
	}
	prev := 0.0
	for _, threads := range []int{32, 1024, 10000, 30720, 100000} {
		occ := d.Occupancy(threads)
		if occ < prev {
			t.Fatalf("occupancy not monotone at %d threads", threads)
		}
		if occ > 1 {
			t.Fatalf("occupancy %v > 1", occ)
		}
		prev = occ
	}
	if d.Occupancy(30720) != 1 {
		t.Fatalf("full complement of threads should reach occupancy 1, got %v", d.Occupancy(30720))
	}
	// Half the resident warps → 0.5.
	if got := d.Occupancy(30720 / 2); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("half occupancy = %v", got)
	}
}

func TestKernelTimeRoofline(t *testing.T) {
	d := K40()
	// Compute-bound kernel at full occupancy: time ≈ flops/(peak·MaxEff).
	w := d.Work(1e9, 1e3, 1<<20)
	want := 1e9 / (d.PeakFLOPS * d.MaxEff)
	if math.Abs(w.SoloTime-want) > 1e-9 {
		t.Fatalf("compute-bound time %v, want %v", w.SoloTime, want)
	}
	// Memory-bound kernel: time ≈ bytes/BW.
	w = d.Work(1e3, 1e9, 1<<20)
	want = 1e9 / d.MemBW
	if math.Abs(w.SoloTime-want) > 1e-9 {
		t.Fatalf("memory-bound time %v, want %v", w.SoloTime, want)
	}
	// Tiny kernel hits the latency floor.
	w = d.Work(10, 10, 32)
	if w.SoloTime != d.MinKernelTime {
		t.Fatalf("tiny kernel %v, want floor %v", w.SoloTime, d.MinKernelTime)
	}
}

func TestLowOccupancySlowsCompute(t *testing.T) {
	d := K40()
	full := d.Work(1e9, 0, 1<<20).SoloTime
	low := d.Work(1e9, 0, 3072).SoloTime // 10% occupancy
	ratio := low / full
	if ratio < 5 || ratio > 20 {
		t.Fatalf("10%% occupancy slowdown %.1fx, want ≈10x (linear latency-hiding model)", ratio)
	}
}

func TestGPUReplayInflatesMemoryTime(t *testing.T) {
	d := K40()
	ks := []nn.Kernel{{Name: "x", FLOPs: 1, BytesIn: 1e9, Threads: 1 << 20, GPUReplay: 3}}
	w := d.Lower(ks)[0]
	want := 3e9 / d.MemBW
	if math.Abs(w.SoloTime-want) > 1e-9 {
		t.Fatalf("replayed time %v, want %v", w.SoloTime, want)
	}
}

func TestForwardTimeIncludesLaunchOverhead(t *testing.T) {
	d := K40()
	ks := []nn.Kernel{
		{FLOPs: 1e6, BytesIn: 1e3, Threads: 1 << 20},
		{FLOPs: 1e6, BytesIn: 1e3, Threads: 1 << 20},
	}
	got := d.ForwardTime(ks)
	solo := d.Lower(ks)
	want := solo[0].SoloTime + solo[1].SoloTime + 2*d.LaunchOverhead
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("forward %v, want %v", got, want)
	}
}

func TestProfileWeightsByTime(t *testing.T) {
	d := K40()
	// A long full-occupancy kernel and a short low-occupancy one: the
	// aggregate occupancy should sit near the long kernel's.
	ks := []nn.Kernel{
		{FLOPs: 1e10, Threads: 1 << 20},
		{FLOPs: 1e6, Threads: 512},
	}
	p := d.ProfileForward(ks)
	if p.Occupancy < 0.9 {
		t.Fatalf("aggregate occupancy %v should be dominated by the long kernel", p.Occupancy)
	}
	if p.IPCRatio <= 0 || p.IPCRatio > 1 {
		t.Fatalf("ipc ratio %v", p.IPCRatio)
	}
	if p.L1Util < 0 || p.L1Util > 1 || p.L2Util < 0 || p.L2Util > 1 {
		t.Fatalf("utilisations out of range: %+v", p)
	}
}

func TestExclusiveSchedulerContextSwitch(t *testing.T) {
	d := K40()
	cfg := ServerConfig{Device: d, GPUs: 1, ProcsPerGPU: 2, MPS: false}
	w := d.Work(1e9, 0, 1<<20) // ~0.33ms each
	b := BatchWork{Kernels: []KernelWork{w}, Queries: 1}
	res := SimulateSaturation(cfg, b, 0.1, 1.0)
	// Two processes alternate; every kernel pays a context switch, so
	// the batch rate is below 1/(soloTime) but above 1/(solo+2*ctx).
	maxRate := 1 / (w.SoloTime + d.LaunchOverhead)
	minRate := 1 / (w.SoloTime + d.CtxSwitch + d.LaunchOverhead)
	if res.BatchRate > maxRate*1.01 || res.BatchRate < minRate*0.9 {
		t.Fatalf("batch rate %v outside [%v, %v]", res.BatchRate, minRate, maxRate)
	}
}

func TestMPSConcurrentLowOccupancyKernels(t *testing.T) {
	d := K40()
	// Kernels at 20% occupancy: 4 MPS processes should co-run at nearly
	// full speed each, quadrupling throughput vs a single process.
	w := d.Work(1e8, 0, 6144) // occ 0.2
	b := BatchWork{Kernels: []KernelWork{w}, Queries: 1}
	one := SimulateSaturation(ServerConfig{Device: d, GPUs: 1, ProcsPerGPU: 1, MPS: true}, b, 0.05, 0.5)
	four := SimulateSaturation(ServerConfig{Device: d, GPUs: 1, ProcsPerGPU: 4, MPS: true}, b, 0.05, 0.5)
	gain := four.QPS / one.QPS
	if gain < 3.3 || gain > 4.3 {
		t.Fatalf("MPS gain %v, want ≈4 for 20%%-occupancy kernels", gain)
	}
}

func TestMPSSharesFullOccupancyKernels(t *testing.T) {
	d := K40()
	// Full-occupancy kernels cannot co-run faster: 4 processes split
	// the GPU, aggregate throughput ≈ single-process (modulo overlap of
	// launch gaps).
	w := d.Work(1e9, 0, 1<<20)
	b := BatchWork{Kernels: []KernelWork{w}, Queries: 1}
	one := SimulateSaturation(ServerConfig{Device: d, GPUs: 1, ProcsPerGPU: 1, MPS: true}, b, 0.05, 0.5)
	four := SimulateSaturation(ServerConfig{Device: d, GPUs: 1, ProcsPerGPU: 4, MPS: true}, b, 0.05, 0.5)
	gain := four.QPS / one.QPS
	if gain < 0.95 || gain > 1.15 {
		t.Fatalf("full-occupancy MPS gain %v, want ≈1", gain)
	}
}

// TestMPSCompletionTimesDeterministic: the MPS scheduler's sums over its
// active kernels run in one order, so one fixed set of overlapping
// kernels finishes at bit-identical times on every run. The
// occupancies sum past 1 (the shared-rate regime, where the sum's
// rounding reaches the completion times), and each kernel's callback
// submits a follow-on, so the order finished kernels fire in is part
// of what must repeat.
func TestMPSCompletionTimesDeterministic(t *testing.T) {
	occs := []float64{0.1, 0.2, 0.3, 0.7, 0.45, 0.15}
	const rounds = 3
	run := func() []float64 {
		eng := sim.New()
		s := newMPSSched(eng, K40())
		done := make([]float64, len(occs)*rounds)
		for i, occ := range occs {
			w := KernelWork{SoloTime: 1e-3 * (1 + float64(i)/7), Occ: occ}
			var submit func(round int)
			submit = func(round int) {
				s.Submit(i, w, func() {
					done[i*rounds+round] = eng.Now()
					if round+1 < rounds {
						submit(round + 1)
					}
				})
			}
			eng.At(float64(i%3)*1e-4, func() { submit(0) })
		}
		eng.Run()
		return done
	}
	want := run()
	for rep := 1; rep < 50; rep++ {
		got := run()
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("run %d: kernel %d round %d finished at %.17g, first run at %.17g",
					rep, k/rounds, k%rounds, got[k], want[k])
			}
		}
	}
}

func TestMPSLatencyBeatsTimeSharing(t *testing.T) {
	d := K40()
	w := d.Work(5e8, 0, 9216) // occ 0.3
	b := BatchWork{Kernels: []KernelWork{w, w, w}, Queries: 1}
	mps := SimulateSaturation(ServerConfig{Device: d, GPUs: 1, ProcsPerGPU: 16, MPS: true}, b, 0.2, 2)
	non := SimulateSaturation(ServerConfig{Device: d, GPUs: 1, ProcsPerGPU: 16, MPS: false}, b, 0.2, 2)
	if mps.AvgLatency >= non.AvgLatency {
		t.Fatalf("MPS latency %v should beat time-sharing %v at 16 instances", mps.AvgLatency, non.AvgLatency)
	}
}

func TestMultiGPUScalesLinearlyWithoutPCIe(t *testing.T) {
	d := K40()
	w := d.Work(1e9, 0, 1<<20)
	b := BatchWork{Kernels: []KernelWork{w}, Queries: 4}
	q1 := SimulateSaturation(ServerConfig{Device: d, GPUs: 1, ProcsPerGPU: 4, MPS: true}, b, 0.1, 1).QPS
	q8 := SimulateSaturation(ServerConfig{Device: d, GPUs: 8, ProcsPerGPU: 4, MPS: true}, b, 0.1, 1).QPS
	if ratio := q8 / q1; ratio < 7.5 || ratio > 8.5 {
		t.Fatalf("8-GPU scaling %v, want ≈8", ratio)
	}
}

func TestSharedPCIeCapsThroughput(t *testing.T) {
	d := K40()
	// Tiny compute, huge transfers: throughput must equal link BW.
	w := d.Work(1e6, 0, 1<<20)
	const bytesPerBatch = 10e6
	b := BatchWork{Kernels: []KernelWork{w}, Queries: 1, BytesIn: bytesPerBatch}
	cfg := ServerConfig{Device: d, GPUs: 8, ProcsPerGPU: 4, MPS: true, HostPCIeBW: 15.75e9}
	res := SimulateSaturation(cfg, b, 0.1, 1)
	wantRate := 15.75e9 / bytesPerBatch
	if math.Abs(res.BatchRate-wantRate)/wantRate > 0.05 {
		t.Fatalf("PCIe-bound batch rate %v, want ≈%v", res.BatchRate, wantRate)
	}
	if res.PCIeUtil < 0.95 {
		t.Fatalf("link should be saturated, util %v", res.PCIeUtil)
	}
}

func TestSimulationConservation(t *testing.T) {
	// Property: GPU busy time never exceeds wall-clock × GPU count, and
	// throughput is non-negative and finite, across random configs.
	d := K40()
	f := func(gpusRaw, procsRaw, occRaw uint8, mps bool) bool {
		gpus := int(gpusRaw%4) + 1
		procs := int(procsRaw%8) + 1
		threads := (int(occRaw%100) + 1) * 307
		w := d.Work(2e8, 1e6, threads)
		b := BatchWork{Kernels: []KernelWork{w}, Queries: 1}
		res := SimulateSaturation(ServerConfig{Device: d, GPUs: gpus, ProcsPerGPU: procs, MPS: mps}, b, 0.05, 0.3)
		if res.QPS < 0 || math.IsInf(res.QPS, 0) || math.IsNaN(res.QPS) {
			return false
		}
		// One in-flight job per GPU may be counted past the horizon.
		return res.GPUUtil <= 1.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMPSProcLimitEnforced(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic beyond 16 MPS processes")
		}
	}()
	d := K40()
	b := BatchWork{Kernels: []KernelWork{d.Work(1e6, 0, 1024)}, Queries: 1}
	SimulateSaturation(ServerConfig{Device: d, GPUs: 1, ProcsPerGPU: 17, MPS: true}, b, 0.1, 1)
}

func TestSaturationQPSConverges(t *testing.T) {
	// SaturationQPS must agree with a long fixed-horizon run within 5%.
	d := K40()
	w := d.Work(5e8, 0, 1<<20)
	b := BatchWork{Kernels: []KernelWork{w, w}, Queries: 2}
	cfg := ServerConfig{Device: d, GPUs: 2, ProcsPerGPU: 4, MPS: true}
	quickRes := SaturationQPS(cfg, b)
	longRes := SimulateSaturation(cfg, b, 1, 10)
	if math.Abs(quickRes.QPS-longRes.QPS)/longRes.QPS > 0.05 {
		t.Fatalf("SaturationQPS %v vs long run %v", quickRes.QPS, longRes.QPS)
	}
}
