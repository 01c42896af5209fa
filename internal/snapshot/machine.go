// Package snapshot implements the atomic scan of Aspnes & Herlihy,
// Section 6 (Figure 5): a wait-free atomic snapshot of an array of
// single-writer multi-reader registers, generalized to an arbitrary
// ∨-semilattice. A Scan(P, v) joins v into the shared state and
// returns the join of all values written so far; Write_L discards the
// return value and ReadMax scans with ⊥.
//
// Two execution modes are provided:
//
//   - ScanMachine: a step-granular state machine over any pram.Memory
//     (the simulator or native atomics; the universal construction
//     scans through it on both), in both the paper's literal form
//     (n²+n+1 reads, n+2 writes per Scan) and the Section 6.2
//     optimized form (n²−1 reads, n+1 writes);
//   - Snapshot: a native goroutine implementation on atomic registers.
//
// The package also provides the end-of-Section-6 construction of a
// classic array snapshot on top of the tagged-vector lattice (Array),
// and three baselines for the paper's Section 2 comparisons: a
// lock-based snapshot, a double-collect snapshot (lock-free but not
// wait-free), and the Afek et al. single-writer snapshot.
package snapshot

import (
	"fmt"

	"repro/internal/lattice"
	"repro/internal/pram"
)

// Layout places the scan matrix of Figure 5 in a simulated memory:
// register Reg(p, i) is scan[p][i] for i in 0..n+1, owned by p.
type Layout struct {
	Base int
	N    int
}

// Regs returns the number of registers the layout occupies.
func (l Layout) Regs() int { return l.N * (l.N + 2) }

// Reg returns the register index of scan[p][i].
func (l Layout) Reg(p, i int) int {
	if i < 0 || i > l.N+1 {
		panic(fmt.Sprintf("snapshot: slot %d out of range [0,%d]", i, l.N+1))
	}
	return l.Base + p*(l.N+2) + i
}

// Install initializes every register to ⊥ and assigns owners.
func (l Layout) Install(m pram.Memory, lat lattice.Lattice) {
	bot := lat.Bottom()
	for p := 0; p < l.N; p++ {
		for i := 0; i <= l.N+1; i++ {
			m.Init(l.Reg(p, i), bot)
			m.SetOwner(l.Reg(p, i), p)
		}
	}
}

type scanPhase int

const (
	phIdle      scanPhase = iota // between operations
	phInitRead                   // literal variant: read scan[P][0]
	phInitWrite                  // literal variant: write scan[P][0]
	phPass                       // the i-loop of lines 3..7
)

// ScanMachine executes a queue of Scan operations for one process as a
// step-granular state machine. Each Step performs exactly one shared
// read or write; per-operation access counts match Section 6.2 exactly
// (see TestScanOperationCounts).
//
// The machine keeps a persistent local copy of the process's own
// registers across operations. In the optimized variant this is what
// eliminates self-reads; in the literal variant it only mirrors the
// single-writer invariant (the machine still performs every read the
// paper's count includes).
type ScanMachine struct {
	proc      int
	lay       Layout
	lat       lattice.Lattice
	ip        lattice.InPlace // non-nil when lat supports in-place joins
	optimized bool

	queue   []any // pending scan arguments
	results []any // completed scan results
	local   []any // local copy of own registers scan[proc][0..n+1]

	ph  scanPhase
	cur any // argument of the operation in progress
	i   int // current pass, 1..n+1
	q   int // reads completed within the current pass
	// acc is the running join for the current pass. With ip set it is
	// a private in-place accumulator while ph == phPass (one
	// allocation per pass, as in Snapshot.Scan) and frozen before it
	// is written or returned.
	acc any
}

// NewScanMachine returns a machine for process proc. If optimized is
// true the machine skips self-reads and the final write, per the
// Section 6.2 accounting.
func NewScanMachine(proc int, lay Layout, lat lattice.Lattice, optimized bool) *ScanMachine {
	if proc < 0 || proc >= lay.N {
		panic(fmt.Sprintf("snapshot: process %d out of range", proc))
	}
	local := make([]any, lay.N+2)
	for i := range local {
		local[i] = lat.Bottom()
	}
	ip, _ := lat.(lattice.InPlace)
	return &ScanMachine{proc: proc, lay: lay, lat: lat, ip: ip, optimized: optimized, local: local}
}

// Enqueue appends a Scan(v) operation to the machine's script. Use the
// lattice's Bottom for a pure ReadMax.
func (mc *ScanMachine) Enqueue(v any) { mc.queue = append(mc.queue, v) }

// Results returns the return values of completed scans, in order.
func (mc *ScanMachine) Results() []any { return mc.results }

// Completed returns the number of finished scans (pram.Progress).
func (mc *ScanMachine) Completed() int { return len(mc.results) }

// DropResults discards the completed-scan result log, resetting
// Completed to zero. Long-running drivers that consume each result as
// it completes call this between operations so the machine's footprint
// is bounded by in-flight work, not by how many scans it has ever run.
func (mc *ScanMachine) DropResults() {
	for i := range mc.results {
		mc.results[i] = nil
	}
	mc.results = mc.results[:0]
}

// Done reports whether every enqueued operation has completed.
func (mc *ScanMachine) Done() bool { return mc.ph == phIdle && len(mc.queue) == 0 }

// Clone returns an independent copy of the machine.
func (mc *ScanMachine) Clone() pram.Machine {
	cp := *mc
	cp.queue = append([]any(nil), mc.queue...)
	cp.results = append([]any(nil), mc.results...)
	cp.local = append([]any(nil), mc.local...)
	if mc.ip != nil && mc.ph == phPass {
		// The pass accumulator is mutated in place: a clone stepped
		// against other register contents needs its own.
		cp.acc = mc.ip.NewAccum(mc.acc)
	}
	return &cp
}

// readsPerPass returns how many register reads a pass performs.
func (mc *ScanMachine) readsPerPass() int {
	if mc.optimized {
		return mc.lay.N - 1
	}
	return mc.lay.N
}

// readTarget returns the process whose register the q-th read of a
// pass targets, skipping self in the optimized variant.
func (mc *ScanMachine) readTarget(q int) int {
	if mc.optimized && q >= mc.proc {
		return q + 1
	}
	return q
}

// lastPass is n+1: the final pass, whose write the optimized variant
// skips.
func (mc *ScanMachine) lastPass() int { return mc.lay.N + 1 }

// startPass begins pass i, seeding the accumulator from local copies.
// In the optimized variant the skipped self-read of scan[P][i-1] is
// replaced by the local copy. If the final optimized pass has no reads
// (n == 1), the operation completes immediately.
func (mc *ScanMachine) startPass(i int) {
	mc.ph = phPass
	mc.i = i
	mc.q = 0
	mc.acc = mc.local[i]
	if mc.ip != nil {
		mc.acc = mc.ip.NewAccum(mc.acc)
	}
	if mc.optimized {
		mc.join(mc.local[i-1])
		if i == mc.lastPass() && mc.readsPerPass() == 0 {
			mc.endPass()
			mc.finish()
		}
	}
}

// join folds x into the pass accumulator.
func (mc *ScanMachine) join(x any) {
	if mc.ip != nil {
		mc.acc = mc.ip.Accumulate(mc.acc, x)
	} else {
		mc.acc = mc.lat.Join(mc.acc, x)
	}
}

// endPass freezes the pass accumulator into pass i's value.
func (mc *ScanMachine) endPass() any {
	if mc.ip != nil {
		mc.acc = mc.ip.Freeze(mc.acc)
	}
	mc.local[mc.i] = mc.acc
	return mc.acc
}

// finish completes the operation in progress with the final pass's
// value (endPass has run).
func (mc *ScanMachine) finish() {
	mc.results = append(mc.results, mc.acc)
	mc.ph = phIdle
}

// Step performs the machine's next shared-memory access.
func (mc *ScanMachine) Step(m pram.Memory) {
	switch mc.ph {
	case phIdle:
		if len(mc.queue) == 0 {
			panic("snapshot: Step after Done")
		}
		mc.cur = mc.queue[0]
		mc.queue = mc.queue[1:]
		if mc.optimized {
			// Line 2 without the self-read: the local copy stands in
			// for the current register contents.
			mc.local[0] = mc.lat.Join(mc.cur, mc.local[0])
			m.Write(mc.proc, mc.lay.Reg(mc.proc, 0), mc.local[0])
			mc.startPass(1)
			return
		}
		// Line 2, literal: read scan[P][0] ...
		mc.acc = m.Read(mc.proc, mc.lay.Reg(mc.proc, 0))
		mc.ph = phInitWrite

	case phInitWrite:
		// ... then write v ∨ scan[P][0].
		mc.local[0] = mc.lat.Join(mc.cur, mc.acc)
		m.Write(mc.proc, mc.lay.Reg(mc.proc, 0), mc.local[0])
		mc.startPass(1)

	case phPass:
		if mc.q < mc.readsPerPass() {
			// Line 5: join in scan[Q][i-1].
			target := mc.readTarget(mc.q)
			mc.join(m.Read(mc.proc, mc.lay.Reg(target, mc.i-1)))
			mc.q++
			if mc.optimized && mc.i == mc.lastPass() && mc.q == mc.readsPerPass() {
				// Optimized variant: the very last write is
				// unnecessary (Section 6.2); the final pass ends at
				// its last read.
				mc.endPass()
				mc.finish()
			}
			return
		}
		// End of pass: write scan[P][i].
		m.Write(mc.proc, mc.lay.Reg(mc.proc, mc.i), mc.endPass())
		if mc.i == mc.lastPass() {
			mc.finish()
			return
		}
		mc.startPass(mc.i + 1)

	default:
		panic("snapshot: corrupt phase")
	}
}

// LiteralReads is the Section 6.2 read count of one literal Scan.
func LiteralReads(n int) uint64 { return uint64(n*n + n + 1) }

// LiteralWrites is the Section 6.2 write count of one literal Scan.
func LiteralWrites(n int) uint64 { return uint64(n + 2) }

// OptimizedReads is the Section 6.2 read count of one optimized Scan.
func OptimizedReads(n int) uint64 { return uint64(n*n - 1) }

// OptimizedWrites is the Section 6.2 write count of one optimized Scan.
func OptimizedWrites(n int) uint64 { return uint64(n + 1) }
