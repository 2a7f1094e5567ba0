package gpusim

import (
	"math"

	"djinn/internal/sim"
)

// A scheduler arbitrates one GPU among the kernels submitted by
// multiple service processes. Two implementations mirror the paper's
// Section 5.2: without MPS, processes time-share the GPU and every
// process switch pays a context-switch penalty; with MPS, kernels from
// different processes execute concurrently from a shared resource pool.
type scheduler interface {
	// Submit enqueues one kernel from process proc; done runs at the
	// simulated time the kernel completes.
	Submit(proc int, w KernelWork, done func())
	// BusySeconds returns accumulated busy time for utilisation stats.
	BusySeconds() float64
}

// exclusiveSched is the non-MPS GPU: a FIFO of kernels executed one at
// a time, with a context switch whenever ownership moves between
// processes.
type exclusiveSched struct {
	eng      *sim.Engine
	spec     DeviceSpec
	queue    []exclJob
	running  bool
	lastProc int
	busy     float64
}

type exclJob struct {
	proc int
	w    KernelWork
	done func()
}

func newExclusiveSched(eng *sim.Engine, spec DeviceSpec) *exclusiveSched {
	return &exclusiveSched{eng: eng, spec: spec, lastProc: -1}
}

func (s *exclusiveSched) Submit(proc int, w KernelWork, done func()) {
	s.queue = append(s.queue, exclJob{proc: proc, w: w, done: done})
	if !s.running {
		s.serveNext()
	}
}

func (s *exclusiveSched) serveNext() {
	if len(s.queue) == 0 {
		s.running = false
		return
	}
	s.running = true
	job := s.queue[0]
	s.queue = s.queue[1:]
	d := job.w.SoloTime
	if job.proc != s.lastProc && s.lastProc != -1 {
		d += s.spec.CtxSwitch
	}
	s.lastProc = job.proc
	s.busy += d
	s.eng.After(d, func() {
		job.done()
		s.serveNext()
	})
}

func (s *exclusiveSched) BusySeconds() float64 { return s.busy }

// mpsSched is the MPS GPU: a processor-sharing server over occupancy.
// Kernels whose occupancies sum to less than 1 run concurrently at full
// speed (the MPS win for low-occupancy kernels); beyond that, everyone
// slows down proportionally. This reproduces both the ~6× throughput
// gain for underoccupied services (Figure 8) and the ~3× latency
// reduction versus time-sharing (Figure 9).
//
// The active kernels are kept in submission order, so the rate and
// progress sums, and the order finished kernels' callbacks fire in, are
// the same on every run: a simulation's output is a function of its
// inputs alone.
type mpsSched struct {
	eng        *sim.Engine
	spec       DeviceSpec
	active     []*psJob
	rate       float64
	lastUpdate float64
	completion *sim.Event
	busy       float64
}

type psJob struct {
	remaining float64 // solo-seconds of work left
	occ       float64
	done      func()
}

func newMPSSched(eng *sim.Engine, spec DeviceSpec) *mpsSched {
	return &mpsSched{eng: eng, spec: spec, rate: 1}
}

func (s *mpsSched) Submit(proc int, w KernelWork, done func()) {
	s.advance()
	occ := w.Occ
	if occ < 1e-6 {
		occ = 1e-6
	}
	job := &psJob{remaining: w.SoloTime, occ: occ, done: done}
	s.active = append(s.active, job)
	s.reschedule()
}

// advance drains progress since the last update at the current rate.
func (s *mpsSched) advance() {
	dt := s.eng.Now() - s.lastUpdate
	if dt > 0 && len(s.active) > 0 {
		s.busy += dt
		progress := dt * s.rate
		for _, j := range s.active {
			j.remaining -= progress
		}
	}
	s.lastUpdate = s.eng.Now()
}

// reschedule recomputes the shared execution rate and the next
// completion event.
func (s *mpsSched) reschedule() {
	if s.completion != nil {
		s.completion.Cancel()
		s.completion = nil
	}
	if len(s.active) == 0 {
		return
	}
	var sumOcc float64
	minRem := math.Inf(1)
	for _, j := range s.active {
		sumOcc += j.occ
		if j.remaining < minRem {
			minRem = j.remaining
		}
	}
	s.rate = 1.0
	if sumOcc > 1 {
		s.rate = 1 / sumOcc
	}
	if minRem < 0 {
		minRem = 0
	}
	s.completion = s.eng.After(minRem/s.rate, s.complete)
}

func (s *mpsSched) complete() {
	s.advance()
	const eps = 1e-12
	var finished []*psJob
	running := s.active[:0]
	for _, j := range s.active {
		if j.remaining <= eps {
			finished = append(finished, j)
		} else {
			running = append(running, j)
		}
	}
	clear(s.active[len(running):])
	s.active = running
	// Callbacks may submit follow-on kernels; reschedule first so state
	// is consistent, then fire.
	s.completion = nil
	s.reschedule()
	for _, j := range finished {
		j.done()
	}
}

func (s *mpsSched) BusySeconds() float64 { return s.busy }

// Scheduler is the exported GPU-arbitration interface for external
// simulations (internal/cluster builds full-WSC topologies around it).
type Scheduler interface {
	// Submit enqueues one kernel from process proc; done runs at the
	// simulated completion time.
	Submit(proc int, w KernelWork, done func())
	// BusySeconds returns accumulated busy time.
	BusySeconds() float64
}

// NewMPSScheduler returns an MPS (concurrent, occupancy-shared) GPU
// scheduler on the engine.
func NewMPSScheduler(eng *sim.Engine, spec DeviceSpec) Scheduler {
	return newMPSSched(eng, spec)
}

// NewExclusiveScheduler returns a time-sharing (non-MPS) GPU scheduler
// with context-switch penalties.
func NewExclusiveScheduler(eng *sim.Engine, spec DeviceSpec) Scheduler {
	return newExclusiveSched(eng, spec)
}
