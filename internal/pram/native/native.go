// Package native is the hardware register substrate: an
// implementation of pram.Memory backed by sync/atomic cells and
// driven by real goroutines, one per process slot, under the Go
// scheduler.
//
// The simulated substrate (*pram.Mem) serializes every access through
// the driving engine, which makes step counts exact and runs
// deterministic — and nanoseconds fiction. This package is the other
// half of the bargain: the same machine bodies, stepped concurrently
// on atomic registers, where the only scheduler is the operating
// system's. Access counts still reconcile with the simulated runs
// (each Read/Write is one atomic operation plus one counter bump), and
// wall-clock time finally means something. Experiment E18 uses both
// substrates to reproduce the Alistarh–Censor-Hillel–Shavit question —
// are these wait-free algorithms *practically* wait-free? — inside
// this repository.
//
// The single-writer multi-reader discipline is enforced the same way
// the simulator enforces it: owner/reader sets are configured before
// the memory is shared, and a violating access panics. The checks are
// debug-mode in spirit — a slice load and a compare per access — and
// can be disabled with SetChecks(false) for benchmarking the bare
// substrate.
package native

import (
	"fmt"
	"sync/atomic"

	"repro/internal/pram"
)

// box wraps a register value so cells can hold values of any concrete
// type behind an atomic pointer (values are immutable once written).
type box struct{ v pram.Value }

// cell is one register: its contents beside its configured owner and
// reader, so a checked access touches one cache line.
type cell struct {
	v             atomic.Pointer[box]
	owner, reader int32
}

// proc is one process's access counters and the boxes its next writes
// will fill, padded so neighbouring processes' state does not share a
// cache line. Only the goroutine driving the process touches slab.
type proc struct {
	reads, writes atomic.Uint64
	slab          []box
	_             [24]byte
}

// slabBoxes is how many boxes a process's writes take from one
// allocation. A box is never reused, so a register may hold it for as
// long as it likes; but a slab stays live while any register holds one
// of its boxes, so a register written long ago keeps up to
// slabBoxes−1 superseded values of its writer reachable.
const slabBoxes = 16

// Mem is the native memory: pram.Memory over sync/atomic cells.
//
// Configuration (Init, SetOwner, SetReader, SetChecks) must
// happen-before the memory is shared between goroutines — exactly the
// constraint the simulator's "before the simulation starts" documents.
// After that, any number of goroutines may Read and Write concurrently
// as long as each respects the ownership discipline and each process
// index is driven by one goroutine at a time, as a process's machine
// already must be; Run and RunTimed arrange the canonical
// one-goroutine-per-slot drive.
type Mem struct {
	cells  []cell
	first  []box // first[r] holds register r's initial contents
	nproc  int
	procs  []proc
	checks bool
}

var _ pram.Memory = (*Mem)(nil)

// NewMem returns a native memory of size registers shared by nproc
// processes. All registers start holding nil and are writable by
// everyone until SetOwner is called; ownership checks start enabled.
func NewMem(size, nproc int) *Mem {
	if size < 0 || nproc <= 0 {
		panic("native: invalid memory geometry")
	}
	m := &Mem{
		cells:  make([]cell, size),
		first:  make([]box, size),
		nproc:  nproc,
		procs:  make([]proc, nproc),
		checks: true,
	}
	for i := range m.cells {
		m.cells[i].v.Store(&m.first[i])
		m.cells[i].owner = pram.NoOwner
		m.cells[i].reader = pram.NoOwner
	}
	return m
}

// Size returns the number of registers.
func (m *Mem) Size() int { return len(m.cells) }

// NProc returns the number of processes sharing the memory.
func (m *Mem) NProc() int { return m.nproc }

// SetChecks toggles the per-access ownership checks (on by default).
// Pre-share configuration only.
func (m *Mem) SetChecks(on bool) { m.checks = on }

// Init sets register r's initial contents without counting an access.
// Pre-share configuration only.
func (m *Mem) Init(r int, v pram.Value) {
	m.first[r].v = v
	m.cells[r].v.Store(&m.first[r])
}

// SetOwner restricts register r so that only process p may write it.
// Pre-share configuration only.
func (m *Mem) SetOwner(r, p int) { m.cells[r].owner = m.restrict("owner", p) }

// SetReader restricts register r so that only process p may read it.
// Pre-share configuration only.
func (m *Mem) SetReader(r, p int) { m.cells[r].reader = m.restrict("reader", p) }

func (m *Mem) restrict(role string, p int) int32 {
	if p != pram.NoOwner && (p < 0 || p >= m.nproc) {
		panic(fmt.Sprintf("native: %s %d out of range", role, p))
	}
	return int32(p)
}

// Read performs an atomic load of register r by process p and counts
// it as one step.
func (m *Mem) Read(p, r int) pram.Value {
	c := &m.cells[r]
	if m.checks && (uint(p) >= uint(m.nproc) || c.reader != pram.NoOwner && c.reader != int32(p)) {
		m.violation("single-reader", "read", "reader", p, r, c.reader)
	}
	m.procs[p].reads.Add(1)
	return c.v.Load().v
}

// Write performs an atomic store of v to register r by process p and
// counts it as one step. Write panics if r has an owner other than p:
// that is a bug in the calling algorithm, not a runtime condition.
func (m *Mem) Write(p, r int, v pram.Value) {
	c := &m.cells[r]
	if m.checks && (uint(p) >= uint(m.nproc) || c.owner != pram.NoOwner && c.owner != int32(p)) {
		m.violation("single-writer", "wrote", "owner", p, r, c.owner)
	}
	pr := &m.procs[p]
	pr.writes.Add(1)
	if len(pr.slab) == 0 {
		pr.slab = make([]box, slabBoxes)
	}
	b := &pr.slab[0]
	pr.slab = pr.slab[1:]
	b.v = v
	c.v.Store(b)
}

// violation panics with the diagnostic for a checked access that
// failed: a process out of range, or one outside the register's
// configured owner or reader.
func (m *Mem) violation(kind, verb, role string, p, r int, o int32) {
	if p < 0 || p >= m.nproc {
		panic(fmt.Sprintf("native: process %d out of range [0,%d)", p, m.nproc))
	}
	panic(fmt.Sprintf("native: %s violation: process %d %s register %d (configured %s: process %d)",
		kind, p, verb, r, role, o))
}

// Peek returns register r's contents without counting an access: one
// atomic load, safe to call concurrently with the run. It serves test
// assertions, oracles and observers that own no process (the anchor
// array's row-0 reads in core.Universal.RootTags), never a machine's
// own steps, which must Read.
func (m *Mem) Peek(r int) pram.Value { return m.cells[r].v.Load().v }

// Owner returns register r's configured owner, or pram.NoOwner.
func (m *Mem) Owner(r int) int { return int(m.cells[r].owner) }

// Reader returns register r's configured reader, or pram.NoOwner.
func (m *Mem) Reader(r int) int { return int(m.cells[r].reader) }

// Counters returns a copy of the access counters. It may be called
// concurrently with the run; per-process counts are each internally
// consistent (they are plain atomic loads), and the totals are their
// sum at the moment each was read.
func (m *Mem) Counters() pram.Counters {
	c := pram.Counters{
		ReadsBy:  make([]uint64, m.nproc),
		WritesBy: make([]uint64, m.nproc),
	}
	for p := 0; p < m.nproc; p++ {
		c.ReadsBy[p], c.WritesBy[p] = m.CountsBy(p)
		c.Reads += c.ReadsBy[p]
		c.Writes += c.WritesBy[p]
	}
	return c
}

// CountsBy returns process p's access counts: two atomic loads, no
// allocation, safe to call concurrently with the run.
func (m *Mem) CountsBy(p int) (reads, writes uint64) {
	return m.procs[p].reads.Load(), m.procs[p].writes.Load()
}
