package pram

// Memory is the register substrate of the asynchronous PRAM: an array
// of atomic single-writer multi-reader registers shared by a fixed set
// of processes. It is the seam between algorithm and hardware — every
// machine body in this repository programs against Memory, so the same
// body runs unchanged on either implementation:
//
//   - *Mem, the simulated substrate: accesses are serialized by the
//     driving engine (that serialization is the very definition of the
//     model's atomic registers), counted exactly, and deterministic
//     under a given schedule. Nanoseconds there are fiction; step
//     counts are truth.
//   - *native.Mem (package repro/internal/pram/native): sync/atomic
//     cells driven by real goroutines under the Go scheduler. Step
//     counts there match the simulated ones access-for-access, and
//     wall-clock time is truth.
//
// Geometry methods (Init, SetOwner, SetReader) configure the memory
// before the run; they are part of the interface because layouts
// install themselves generically. Implementations may require that
// configuration happens-before the memory is shared.
type Memory interface {
	// Size returns the number of registers.
	Size() int
	// NProc returns the number of processes sharing the memory.
	NProc() int

	// Init sets register r's initial contents without counting an
	// access. Pre-run configuration only.
	Init(r int, v Value)
	// SetOwner restricts register r so that only process p may write
	// it (NoOwner lifts the restriction). Pre-run configuration only.
	SetOwner(r, p int)
	// SetReader restricts register r so that only process p may read
	// it (NoOwner lifts the restriction). Pre-run configuration only.
	SetReader(r, p int)

	// Read performs an atomic read of register r by process p and
	// counts it as one step.
	Read(p, r int) Value
	// Write performs an atomic write of v to register r by process p
	// and counts it as one step. It panics on a single-writer
	// violation: that is a bug in the calling algorithm.
	Write(p, r int, v Value)

	// Peek returns register r's contents without counting an access —
	// for test assertions, oracles and observers that own no process
	// (core.Universal.RootTags), never for a machine's own steps. On
	// *native.Mem it is one atomic load, safe to call while the run
	// proceeds; on *Mem it is a plain read, safe only from the
	// goroutine that serializes the run.
	Peek(r int) Value
	// Counters returns a copy of the access counters.
	Counters() Counters
}

// Both substrates implement Memory.
var _ Memory = (*Mem)(nil)
