package core

import (
	"sync"

	"repro/internal/pram"
	"repro/internal/sched"
	"repro/internal/spec"
)

// simEngine drives a Universal's machines on the simulated register
// substrate. It is the engine behind the public simulated backend: a
// Universal built with NewSimulated dispatches every Execute here
// instead of letting the calling goroutine step its slot's machine.
//
// Execution is serialized by a mutex — that serialization is not a
// concession but the substrate's semantics: the asynchronous PRAM's
// registers are defined by a global serial order of accesses, and the
// engine's scheduler picks which pending process takes each step.
// Concurrent callers therefore measure exact step counts on a
// deterministic substrate, never nanoseconds; the native backend is
// where nanoseconds mean something.
type simEngine struct {
	mu    sync.Mutex
	mem   *pram.Mem
	mcs   []*Machine // the Universal's machines
	sched pram.Scheduler
}

func newSimEngine(mem *pram.Mem, mcs []*Machine, sc pram.Scheduler) *simEngine {
	if sc == nil {
		sc = sched.NewRoundRobin()
	}
	return &simEngine{mem: mem, mcs: mcs, sched: sc}
}

// running returns the ascending indices of machines with unfinished
// operations.
func (e *simEngine) running() []int {
	var out []int
	for i, mc := range e.mcs {
		if !mc.Done() {
			out = append(out, i)
		}
	}
	return out
}

// execute runs one operation for slot p: enqueue the invocation, then
// pump scheduler-chosen steps until p's operation completes. A
// scheduler that stops or chooses outside the running set cannot wedge
// the public API: the pump falls back to stepping p itself, which is
// wait-free. Each call runs its operation to completion under the
// lock, and the deferred reset leaves p's machine idle and empty even
// when a step panics, so every machine is idle between calls and a
// long-running serve's footprint is bounded by in-flight work.
func (e *simEngine) execute(p int, inv spec.Inv) any {
	e.mu.Lock()
	defer e.mu.Unlock()
	mc := e.mcs[p]
	defer mc.reset()
	mc.Enqueue(inv)
	for !mc.Done() {
		running := e.running()
		pick := e.sched.Next(running)
		if !containsInt(running, pick) {
			pick = p
		}
		e.mcs[pick].Step(e.mem)
	}
	return mc.Results()[0]
}

// counters returns the substrate's access counters.
func (e *simEngine) counters() pram.Counters {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mem.Counters()
}

// truncTick lends slot p's idle time to a pending truncation epoch.
// Lock order everywhere is e.mu → tr.mu (the machine hooks fire
// inside execute, which already holds e.mu). The extra catch-up scan
// costs real steps on the serialized substrate and is charged to p —
// acceptable for the serving layer's idle slots, which is the only
// caller.
func (e *simEngine) truncTick(p int) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.mcs[p].truncTick(e.mem)
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
