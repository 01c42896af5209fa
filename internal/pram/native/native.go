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

// procCtr is one process's access counters, padded so neighbouring
// processes' bumps do not share a cache line.
type procCtr struct {
	reads, writes atomic.Uint64
	_             [48]byte
}

// Mem is the native memory: pram.Memory over sync/atomic cells.
//
// Configuration (Init, SetOwner, SetReader, SetChecks) must
// happen-before the memory is shared between goroutines — exactly the
// constraint the simulator's "before the simulation starts" documents.
// After that, any number of goroutines may Read and Write concurrently
// as long as each respects the ownership discipline; Run and RunTimed
// arrange the canonical one-goroutine-per-slot drive.
type Mem struct {
	cells  []atomic.Pointer[box]
	owner  []int32
	reader []int32
	nproc  int
	ctr    []procCtr
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
		cells:  make([]atomic.Pointer[box], size),
		owner:  make([]int32, size),
		reader: make([]int32, size),
		nproc:  nproc,
		ctr:    make([]procCtr, nproc),
		checks: true,
	}
	nilBox := &box{}
	for i := range m.cells {
		m.cells[i].Store(nilBox)
		m.owner[i] = pram.NoOwner
		m.reader[i] = pram.NoOwner
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
func (m *Mem) Init(r int, v pram.Value) { m.cells[r].Store(&box{v}) }

// SetOwner restricts register r so that only process p may write it.
// Pre-share configuration only.
func (m *Mem) SetOwner(r, p int) {
	if p != pram.NoOwner && (p < 0 || p >= m.nproc) {
		panic(fmt.Sprintf("native: owner %d out of range", p))
	}
	m.owner[r] = int32(p)
}

// SetReader restricts register r so that only process p may read it.
// Pre-share configuration only.
func (m *Mem) SetReader(r, p int) {
	if p != pram.NoOwner && (p < 0 || p >= m.nproc) {
		panic(fmt.Sprintf("native: reader %d out of range", p))
	}
	m.reader[r] = int32(p)
}

// Read performs an atomic load of register r by process p and counts
// it as one step.
func (m *Mem) Read(p, r int) pram.Value {
	if m.checks {
		m.checkProc(p)
		if o := m.reader[r]; o != pram.NoOwner && o != int32(p) {
			panic(fmt.Sprintf(
				"native: single-reader violation: process %d read register %d (configured reader: process %d)",
				p, r, o))
		}
	}
	m.ctr[p].reads.Add(1)
	return m.cells[r].Load().v
}

// Write performs an atomic store of v to register r by process p and
// counts it as one step. Write panics if r has an owner other than p:
// that is a bug in the calling algorithm, not a runtime condition.
func (m *Mem) Write(p, r int, v pram.Value) {
	if m.checks {
		m.checkProc(p)
		if o := m.owner[r]; o != pram.NoOwner && o != int32(p) {
			panic(fmt.Sprintf(
				"native: single-writer violation: process %d wrote register %d (configured owner: process %d)",
				p, r, o))
		}
	}
	m.ctr[p].writes.Add(1)
	m.cells[r].Store(&box{v})
}

// Peek returns register r's contents without counting an access: one
// atomic load, safe to call concurrently with the run. It serves test
// assertions, oracles and observers that own no process (the anchor
// array's row-0 reads in core.Universal.RootTags), never a machine's
// own steps, which must Read.
func (m *Mem) Peek(r int) pram.Value { return m.cells[r].Load().v }

// Owner returns register r's configured owner, or pram.NoOwner.
func (m *Mem) Owner(r int) int { return int(m.owner[r]) }

// Reader returns register r's configured reader, or pram.NoOwner.
func (m *Mem) Reader(r int) int { return int(m.reader[r]) }

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
		c.ReadsBy[p] = m.ctr[p].reads.Load()
		c.WritesBy[p] = m.ctr[p].writes.Load()
		c.Reads += c.ReadsBy[p]
		c.Writes += c.WritesBy[p]
	}
	return c
}

func (m *Mem) checkProc(p int) {
	if p < 0 || p >= m.nproc {
		panic(fmt.Sprintf("native: process %d out of range [0,%d)", p, m.nproc))
	}
}
