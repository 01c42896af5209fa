// Package sim exposes the asynchronous PRAM simulator as public API:
// step-granular shared memory, cloneable process machines, pluggable
// and adversarial schedulers, exact access accounting, and exhaustive
// schedule enumeration. It is the substrate every simulation-mode
// result in this repository is measured on, and it is reusable for
// model-checking your own register-based algorithms:
//
//	mem := sim.NewMem(registers, processes)
//	sys := sim.NewSystem(mem, machines)       // machines implement sim.Machine
//	err := sys.Run(sim.NewRandom(seed), 0)    // one sampled schedule
//	leaves, err := sim.Explore(sys2, budget,  // every schedule
//	    func(final *sim.System) { /* assert invariants */ })
//
// A Machine performs at most one shared read or write per Step — the
// asynchronous PRAM cost model — and must be cloneable, which is what
// makes lookahead adversaries and exhaustive exploration possible.
package sim

import (
	"repro/apram/obs"
	"repro/internal/pram"
	"repro/internal/pram/native"
	"repro/internal/sched"
)

// Core simulator types.
type (
	// Memory is the register-substrate interface every machine body
	// programs against: the simulated Mem implements it, and so does
	// the native sync/atomic memory (see NewNativeMem). One algorithm
	// body, two substrates.
	Memory = pram.Memory
	// Mem is an array of atomic registers with access counting and
	// optional single-writer/single-reader enforcement.
	Mem = pram.Mem
	// Value is a register's contents (treat as immutable).
	Value = pram.Value
	// Machine is a process as a step-granular cloneable state machine.
	Machine = pram.Machine
	// System is a set of machines sharing one memory.
	System = pram.System
	// Counters reports reads/writes, in total and per process.
	Counters = pram.Counters
	// OpSpan is a completed operation's real-time interval.
	OpSpan = pram.OpSpan
	// Progress is implemented by machines that report completed ops.
	Progress = pram.Progress
)

// Scheduler chooses which process steps next — in the asynchronous
// PRAM model, the scheduler IS the adversary, and a wait-free
// algorithm must complete every operation under every implementation
// of this interface. Next receives the indices of the processes still
// running (ascending, non-empty) and returns one of them; returning a
// value outside the slice stops the run (the caller sees ErrStopped).
//
// This is the package's own interface, not an alias into internal/:
// implement it directly to write bespoke adversaries, or use the
// ready-made fair (NewRoundRobin, NewRandom), unfair (NewBursty,
// NewPriority), failure-injecting (NewCrash) and replay (NewTrace,
// NewReplay) schedulers. Everything here is structurally compatible
// with System.Run.
type Scheduler interface {
	Next(running []int) int
}

// Errors surfaced by runs.
var (
	// ErrStepLimit reports an exhausted step budget.
	ErrStepLimit = pram.ErrStepLimit
	// ErrStopped reports a scheduler that halted the run.
	ErrStopped = pram.ErrStopped
	// ErrBudget reports an exhausted exploration budget.
	ErrBudget = pram.ErrBudget
)

// NoOwner marks a register free of writer/reader restrictions.
const NoOwner = pram.NoOwner

// NewMem returns a memory of size registers for nproc processes.
func NewMem(size, nproc int) *Mem { return pram.NewMem(size, nproc) }

// NativeMem is the hardware register substrate: an array of
// sync/atomic cells implementing the same Memory interface as the
// simulated Mem, so one machine body runs on either. Registers are
// configured (Init/SetOwner/SetReader) before the memory is shared;
// afterwards real goroutines access them concurrently. Ownership
// checks are on by default — a read or write violating the declared
// single-writer/single-reader discipline panics with a diagnostic —
// and can be disabled for peak-throughput measurement with SetChecks.
type NativeMem = native.Mem

// NewNativeMem returns a native memory of size registers for nproc
// process slots, ownership checks enabled.
func NewNativeMem(size, nproc int) *NativeMem { return native.NewMem(size, nproc) }

// RunNative drives one goroutine per machine against a native memory
// until every machine is Done, recovering machine panics into the
// returned error. This is the hardware-substrate counterpart of
// System.Run — there is no scheduler argument because on this
// substrate the Go runtime and the silicon are the adversary.
func RunNative(m *NativeMem, machines []Machine) error { return native.Run(m, machines) }

// RunNativeTimed is RunNative recording wall-clock operation spans
// (nanoseconds from a single monotonic epoch) for machines that
// implement Progress, and reporting op begin/done to probe (which may
// be nil) under op. Pair it with an obs.Recorder using
// obs.WithClock(obs.MonotonicClock()) to capture native latency
// distributions — experiment E18's measurement path.
func RunNativeTimed(m *NativeMem, machines []Machine, probe obs.Probe, op obs.Op) ([]OpSpan, error) {
	return native.RunTimed(m, machines, probe, op)
}

// NewSystem assembles machines over a shared memory.
func NewSystem(m *Mem, machines []Machine) *System { return pram.NewSystem(m, machines) }

// RunTimed runs the system recording per-operation intervals.
func RunTimed(s *System, sc Scheduler, maxSteps int) ([]OpSpan, error) {
	return pram.RunTimed(s, sc, maxSteps)
}

// Explore enumerates every schedule of the system (see pram.Explore).
func Explore(sys *System, budget int, onDone func(*System)) (int, error) {
	return pram.Explore(sys, budget, onDone)
}

// ExploreCrashes enumerates every schedule and ≤ maxCrashes crash
// pattern.
func ExploreCrashes(sys *System, maxCrashes, budget int, onDone func(*System, []int)) (int, error) {
	return pram.ExploreCrashes(sys, maxCrashes, budget, onDone)
}

// Schedulers.
type (
	// RoundRobin cycles processes fairly.
	RoundRobin = sched.RoundRobin
	// Random picks uniformly with a seeded source.
	Random = sched.Random
	// Bursty runs geometric bursts (models pre-emption and paging).
	Bursty = sched.Bursty
	// Crash stops a victim after a step budget.
	Crash = sched.Crash
	// Priority starves all but one process for a budget.
	Priority = sched.Priority
	// Trace records scheduling decisions for replay.
	Trace = sched.Trace
	// Replay replays a recorded schedule.
	Replay = sched.Replay
	// Func adapts a function to the Scheduler interface.
	Func = sched.Func
)

// NewRoundRobin returns a fair cyclic scheduler.
func NewRoundRobin() *RoundRobin { return sched.NewRoundRobin() }

// NewRandom returns a seeded uniform scheduler.
func NewRandom(seed int64) *Random { return sched.NewRandom(seed) }

// NewBursty returns a seeded bursty scheduler.
func NewBursty(seed int64, meanBurst int) *Bursty { return sched.NewBursty(seed, meanBurst) }

// NewPriority returns a starvation scheduler.
func NewPriority(favored, budget int) *Priority { return sched.NewPriority(favored, budget) }

// NewCrash returns a scheduler that delegates to inner until victim
// has taken after steps, then permanently stops scheduling it — the
// paper's failure model (a crashed process simply stops taking steps).
// Wait-free algorithms must still complete every other process's
// operations; run one against your own Machine to check.
func NewCrash(inner Scheduler, victim int, after uint64) *Crash {
	return &Crash{Inner: inner, Victim: victim, After: after}
}

// NewTrace returns a recording wrapper around inner.
func NewTrace(inner Scheduler) *Trace { return sched.NewTrace(inner) }

// NewReplay returns a scheduler replaying a recorded decision list.
func NewReplay(script []int) *Replay { return sched.NewReplay(script) }
