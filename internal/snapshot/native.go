package snapshot

import (
	"fmt"

	"repro/apram/obs"
	"repro/internal/lattice"
	"repro/internal/pram/native"
)

// runner is what the goroutine-ready objects of this package share: a
// pram/native memory their machines step on, and a probe that receives
// each operation's register accesses, read off the memory's counters.
type runner struct {
	mem     *native.Mem
	probe   obs.Probe // nil when uninstrumented
	emitOps bool      // report OpScan completions (false when nested)
}

// instrument attaches a probe (see Snapshot.Instrument).
func (rn *runner) instrument(p obs.Probe, emitOps bool) {
	rn.probe = p
	rn.emitOps = emitOps && p != nil
}

// begin opens one operation of process p, returning p's access counts
// for end. It panics if p is not a process of the memory.
func (rn *runner) begin(p int) (reads, writes uint64) {
	if n := rn.mem.NProc(); p < 0 || p >= n {
		panic(fmt.Sprintf("snapshot: process %d out of range [0,%d)", p, n))
	}
	if rn.probe == nil {
		return 0, 0
	}
	if rn.emitOps {
		rn.probe.OpBegin(p, obs.OpScan)
	}
	return rn.mem.CountsBy(p)
}

// end closes the operation begin opened, reporting the accesses p made
// since.
func (rn *runner) end(p int, reads, writes uint64) {
	if rn.probe == nil {
		return
	}
	r, w := rn.mem.CountsBy(p)
	rn.probe.RegReads(p, int(r-reads))
	rn.probe.RegWrites(p, int(w-writes))
	if rn.emitOps {
		rn.probe.OpDone(p, obs.OpScan)
	}
}

// Snapshot is the native (goroutine-ready) atomic scan object over an
// arbitrary ∨-semilattice. Each process slot steps its own optimized
// ScanMachine (Section 6.2), the body the explorer and the simulator
// check, on pram/native atomic registers laid out by Layout.
//
// Each process index owns its row of registers and its machine, so a
// given index must be used by at most one goroutine at a time;
// distinct indices may run fully concurrently. Every operation is
// wait-free: exactly n+1 writes and n²−1 reads of atomic registers,
// regardless of what other goroutines do.
type Snapshot struct {
	runner
	lat lattice.Lattice
	bot any // lat.Bottom(), every ReadMax's argument
	mcs []*ScanMachine
}

// New returns an n-process snapshot object over lat.
func New(n int, lat lattice.Lattice) *Snapshot {
	if n <= 0 {
		panic("snapshot: need at least one process")
	}
	lay := Layout{N: n}
	s := &Snapshot{
		runner: runner{mem: native.NewMem(lay.Regs(), n)},
		lat:    lat,
		bot:    lat.Bottom(),
		mcs:    make([]*ScanMachine, n),
	}
	lay.Install(s.mem, lat)
	for p := range s.mcs {
		s.mcs[p] = NewScanMachine(p, lay, lat, true)
	}
	return s
}

// N returns the number of process slots.
func (s *Snapshot) N() int { return len(s.mcs) }

// Instrument attaches a probe. With emitOps set, every Scan (and so
// Update/ReadMax) reports an obs.OpScan completion; objects that embed
// a snapshot pass false so register counts flow to the probe while
// operation attribution stays with the outer object. Attach before the
// object is shared between goroutines; probes must be wait-free (see
// package obs).
func (s *Snapshot) Instrument(p obs.Probe, emitOps bool) { s.instrument(p, emitOps) }

// Lattice returns the lattice the snapshot operates over.
func (s *Snapshot) Lattice() lattice.Lattice { return s.lat }

// Scan joins v into the shared state and returns the join of all
// values written so far (Figure 5). It is linearizable (Theorem 33)
// and wait-free. Use Bottom for v to read without contributing.
func (s *Snapshot) Scan(p int, v any) any {
	reads, writes := s.begin(p)
	mc := s.mcs[p]
	mc.Enqueue(v)
	for !mc.Done() {
		mc.Step(s.mem)
	}
	out := mc.results[0]
	mc.DropResults()
	s.end(p, reads, writes)
	return out
}

// Update is the Write_L operation: join v into the shared state,
// discarding the scan result.
func (s *Snapshot) Update(p int, v any) { s.Scan(p, v) }

// ReadMax returns the join of all values written by Update and Scan
// operations linearized before it.
func (s *Snapshot) ReadMax(p int) any { return s.Scan(p, s.bot) }
