// Package pram models the asynchronous PRAM of Aspnes & Herlihy:
// a finite set of sequential processes that communicate only by
// applying atomic read and write operations to shared single-writer
// multi-reader registers, scheduled one step at a time by an arbitrary
// (possibly adversarial) scheduler.
//
// Processes are represented as explicit state machines (Machine) whose
// Step method performs at most one shared-memory access. This step
// granularity is exactly the cost model of the paper: Theorem 5 counts
// "(2n+1) steps in each round", and Section 6.2 counts individual read
// and write operations per Scan. Machines are cloneable, which is what
// lets the Lemma 6 adversary consult its "preference" oracle — it forks
// the whole system and runs one process alone to see what it would
// return.
//
// The package enforces the single-writer discipline: each register may
// be assigned an owner, and a write by any other process panics. This
// turns a large class of algorithmic mistakes into immediate failures
// rather than silent non-linearizable behaviour.
package pram

import "fmt"

// Value is the contents of a shared register. Values must be treated
// as immutable once written: a machine that needs to change a value
// writes a fresh one.
type Value any

// Counters records the shared-memory accesses performed so far, in
// total and per process. It is the measurement substrate for the
// paper's operation-count claims (Theorem 5, Section 6.2).
type Counters struct {
	Reads, Writes uint64
	ReadsBy       []uint64
	WritesBy      []uint64
}

// clone returns a deep copy of c.
func (c Counters) clone() Counters {
	out := Counters{Reads: c.Reads, Writes: c.Writes}
	out.ReadsBy = append([]uint64(nil), c.ReadsBy...)
	out.WritesBy = append([]uint64(nil), c.WritesBy...)
	return out
}

// Accesses returns the total number of shared-memory accesses.
func (c Counters) Accesses() uint64 { return c.Reads + c.Writes }

// AccessesBy returns the accesses performed by process p.
func (c Counters) AccessesBy(p int) uint64 { return c.ReadsBy[p] + c.WritesBy[p] }

// Sub returns the per-field difference c − base. It is how callers
// measure the cost of a single operation: snapshot the counters, run
// the operation, subtract.
func (c Counters) Sub(base Counters) Counters {
	out := c.clone()
	out.Reads -= base.Reads
	out.Writes -= base.Writes
	for i := range out.ReadsBy {
		out.ReadsBy[i] -= base.ReadsBy[i]
		out.WritesBy[i] -= base.WritesBy[i]
	}
	return out
}

// NoOwner marks a register writable by every process.
const NoOwner = -1

// Mem is an array of atomic registers shared by nproc processes.
//
// Mem is not safe for concurrent use: it belongs to the simulation
// engine, which serializes all accesses (that serialization is the
// very definition of the asynchronous PRAM's atomic registers). The
// native, goroutine-based implementations elsewhere in this repository
// use sync/atomic instead.
type Mem struct {
	regs   []Value
	owner  []int
	reader []int
	nproc  int
	c      Counters
	onRead func(p, r int, v Value)
	onWrit func(p, r int, v Value)
}

// NewMem returns a memory of size registers shared by nproc processes.
// All registers start holding nil and are writable by everyone until
// SetOwner is called.
func NewMem(size, nproc int) *Mem {
	if size < 0 || nproc <= 0 {
		panic("pram: invalid memory geometry")
	}
	m := &Mem{
		regs:   make([]Value, size),
		owner:  make([]int, size),
		reader: make([]int, size),
		nproc:  nproc,
	}
	for i := range m.owner {
		m.owner[i] = NoOwner
		m.reader[i] = NoOwner
	}
	m.c.ReadsBy = make([]uint64, nproc)
	m.c.WritesBy = make([]uint64, nproc)
	return m
}

// Size returns the number of registers.
func (m *Mem) Size() int { return len(m.regs) }

// NProc returns the number of processes sharing the memory.
func (m *Mem) NProc() int { return m.nproc }

// SetOwner restricts register r so that only process p may write it,
// enforcing the single-writer multi-reader discipline of the paper's
// register model. Passing NoOwner lifts the restriction.
func (m *Mem) SetOwner(r, p int) {
	if p != NoOwner && (p < 0 || p >= m.nproc) {
		panic(fmt.Sprintf("pram: owner %d out of range", p))
	}
	m.owner[r] = p
}

// SetReader restricts register r so that only process p may read it,
// modelling single-reader registers (the weakest register flavour the
// literature the paper cites starts from). Passing NoOwner lifts the
// restriction.
func (m *Mem) SetReader(r, p int) {
	if p != NoOwner && (p < 0 || p >= m.nproc) {
		panic(fmt.Sprintf("pram: reader %d out of range", p))
	}
	m.reader[r] = p
}

// Init sets register r's initial contents without counting an access.
// It may only be used before the simulation starts.
func (m *Mem) Init(r int, v Value) { m.regs[r] = v }

// Read performs an atomic read of register r by process p and counts
// it as one step.
func (m *Mem) Read(p, r int) Value {
	m.checkProc(p)
	if o := m.reader[r]; o != NoOwner && o != p {
		panic(fmt.Sprintf(
			"pram: single-reader violation: process %d read register %d, whose configured reader set is {%s} (owner set {%s}, %d processes)",
			p, r, procSet(o), procSet(m.owner[r]), m.nproc))
	}
	m.c.Reads++
	m.c.ReadsBy[p]++
	v := m.regs[r]
	if m.onRead != nil {
		m.onRead(p, r, v)
	}
	return v
}

// Write performs an atomic write of v to register r by process p and
// counts it as one step. Write panics if r has an owner other than p:
// that is a bug in the calling algorithm, not a runtime condition.
func (m *Mem) Write(p, r int, v Value) {
	m.checkProc(p)
	if o := m.owner[r]; o != NoOwner && o != p {
		panic(fmt.Sprintf(
			"pram: single-writer violation: process %d wrote register %d, whose configured owner set is {%s} (reader set {%s}, %d processes)",
			p, r, procSet(o), procSet(m.reader[r]), m.nproc))
	}
	m.c.Writes++
	m.c.WritesBy[p]++
	m.regs[r] = v
	if m.onWrit != nil {
		m.onWrit(p, r, v)
	}
}

// Peek returns register r's contents without counting an access. It is
// for test assertions and oracles, never for algorithms.
func (m *Mem) Peek(r int) Value { return m.regs[r] }

// Owner returns register r's configured owner, or NoOwner.
func (m *Mem) Owner(r int) int { return m.owner[r] }

// Reader returns register r's configured reader, or NoOwner.
func (m *Mem) Reader(r int) int { return m.reader[r] }

// procSet renders an owner/reader configuration for diagnostics: the
// model's single-writer (single-reader) sets are either a singleton or
// "every process".
func procSet(p int) string {
	if p == NoOwner {
		return "all processes"
	}
	return fmt.Sprintf("process %d", p)
}

// Counters returns a copy of the access counters.
func (m *Mem) Counters() Counters { return m.c.clone() }

// CountsBy returns process p's reads and writes so far.
func (m *Mem) CountsBy(p int) (reads, writes uint64) { return m.c.ReadsBy[p], m.c.WritesBy[p] }

// Steps returns the total number of shared accesses so far without
// cloning the per-process counters — cheap enough to serve as a
// deterministic clock (one tick per serialized access).
func (m *Mem) Steps() uint64 { return m.c.Reads + m.c.Writes }

// Observe installs hooks invoked after every read and write. Either
// hook may be nil. Hooks see the simulation's serialized access order,
// which makes them suitable for trace recording and invariant checks.
func (m *Mem) Observe(onRead, onWrite func(p, r int, v Value)) {
	m.onRead, m.onWrit = onRead, onWrite
}

// Clone returns a deep copy of the memory: register contents (shared
// as immutable values), owners, and counters. Hooks are not copied; a
// cloned memory is an oracle's scratch world and should not re-trigger
// observation.
func (m *Mem) Clone() *Mem {
	out := &Mem{
		regs:   append([]Value(nil), m.regs...),
		owner:  append([]int(nil), m.owner...),
		reader: append([]int(nil), m.reader...),
		nproc:  m.nproc,
		c:      m.c.clone(),
	}
	return out
}

func (m *Mem) checkProc(p int) {
	if p < 0 || p >= m.nproc {
		panic(fmt.Sprintf("pram: process %d out of range [0,%d)", p, m.nproc))
	}
}
