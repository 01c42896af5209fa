// Package snapshot implements the atomic scan of Aspnes & Herlihy,
// Section 6 (Figure 5): a wait-free atomic snapshot of an array of
// single-writer multi-reader registers, generalized to an arbitrary
// ∨-semilattice. A Scan(P, v) joins v into the shared state and
// returns the join of all values written so far; Write_L discards the
// return value and ReadMax scans with ⊥.
//
// The algorithm has one body, ScanMachine: a step-granular state
// machine over any pram.Memory, in both the paper's literal form
// (n²+n+1 reads, n+2 writes per Scan) and the Section 6.2 optimized
// form (n²−1 reads, n+1 writes). The simulator, the exhaustive
// explorer and the universal construction step it; Snapshot, the
// goroutine-ready object, gives each process an optimized machine and
// steps it on native atomics (pram/native).
//
// The package also provides the end-of-Section-6 construction of a
// classic array snapshot on top of the tagged-vector lattice (Array),
// and three baselines for the paper's Section 2 comparisons: a
// lock-based snapshot, a double-collect snapshot (lock-free but not
// wait-free), and the Afek et al. single-writer snapshot. The last two
// are machines as well (DCScanMachine, AfekScanMachine and their
// updaters), which DoubleCollect and Afek step on native atomics.
package snapshot

import (
	"fmt"
	"slices"

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
	optimized bool
	own       int // register of scan[proc][0]; scan[proc][i] is own+i

	queue   []any // pending scan arguments
	results []any // completed scan results
	local   []any // local copy of own registers scan[proc][0..n+1]

	ph  scanPhase
	cur any // argument of the operation in progress
	i   int // current pass, 1..n+1
	// r is the register of the pass's next read, and stop is where r
	// lands after the pass's last read; r == stop whenever the next
	// access is not a pass's read. skip is p's own register in the
	// pass's column, which the optimized variant does not read (−1 in
	// the literal variant), and last is set during a pass that ends at
	// its last read: the optimized variant's pass n+1.
	r, stop, skip int
	last          bool
	acc           passJoin // the running join of row 0 or of the current pass
}

// passJoin is the running join of one Figure 5 pass (or of line 2's
// v ∨ scan[P][0]), copied only when a join needs it. Its value stays
// borrowed, an immutable element already held such as a local copy or
// a register value just read, while each join leaves it unchanged
// (operand ≤ value) or takes the operand whole (value ≤ operand). The
// first join of two incomparable elements copies it into a private
// lattice.InPlace accumulator, which the pass's later joins mutate; a
// lattice without InPlace joins them with Join. Both shortcuts are
// exact because Leq(a, b) iff a ∨ b = b (for the tagged vector, cell
// for cell, since equal tags carry equal cells), and scan values are
// comparable (Lemma 32), so after its first pass a scan rarely copies.
type passJoin struct {
	lat   lattice.Lattice
	ip    lattice.InPlace // non-nil when lat supports in-place joins
	v     any
	owned bool // v is a private accumulator, not yet frozen
}

func newPassJoin(lat lattice.Lattice) passJoin {
	ip, _ := lat.(lattice.InPlace)
	return passJoin{lat: lat, ip: ip}
}

// start begins a join at the borrowed element v.
func (a *passJoin) start(v any) { a.v, a.owned = v, false }

// join folds x into the running join.
func (a *passJoin) join(x any) {
	switch {
	case a.owned:
		a.v = a.ip.Accumulate(a.v, x)
	case a.lat.Leq(x, a.v):
	case a.lat.Leq(a.v, x):
		a.v = x
	case a.ip != nil:
		a.v, a.owned = a.ip.Accumulate(a.ip.NewAccum(a.v), x), true
	default:
		a.v = a.lat.Join(a.v, x)
	}
}

// end returns the join as an immutable element.
func (a *passJoin) end() any {
	if a.owned {
		a.v, a.owned = a.ip.Freeze(a.v), false
	}
	return a.v
}

// NewScanMachine returns a machine for process proc. If optimized is
// true the machine skips self-reads and the final write, per the
// Section 6.2 accounting.
func NewScanMachine(proc int, lay Layout, lat lattice.Lattice, optimized bool) *ScanMachine {
	if proc < 0 || proc >= lay.N {
		panic(fmt.Sprintf("snapshot: process %d out of range", proc))
	}
	// A scan never writes through an element it holds, so every slot
	// of the local copy can start at one ⊥.
	local := make([]any, lay.N+2)
	bot := lat.Bottom()
	for i := range local {
		local[i] = bot
	}
	return &ScanMachine{proc: proc, lay: lay, own: lay.Reg(proc, 0), acc: newPassJoin(lat), optimized: optimized, local: local}
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
	if mc.acc.owned {
		// A private accumulator is mutated in place: a clone stepped
		// against other register contents needs its own. A borrowed
		// value is never written through, so the two may share it.
		cp.acc.v = mc.acc.ip.NewAccum(mc.acc.v)
	}
	return &cp
}

// lastPass is n+1: the final pass, whose write the optimized variant
// skips.
func (mc *ScanMachine) lastPass() int { return mc.lay.N + 1 }

// startPass begins pass i, seeding the accumulator from local copies
// and aiming r at the first register of column i−1 it reads. In the
// optimized variant the skipped self-read of scan[P][i-1] is replaced
// by the local copy. If the final optimized pass has no reads
// (n == 1), the operation completes immediately.
func (mc *ScanMachine) startPass(i int) {
	stride := mc.lay.N + 2
	mc.ph, mc.i = phPass, i
	mc.r = mc.lay.Base + i - 1
	mc.stop = mc.r + mc.lay.N*stride
	mc.skip = -1
	mc.acc.start(mc.local[i])
	if mc.optimized {
		mc.skip = mc.own + i - 1
		if mc.r == mc.skip {
			mc.r += stride
		}
		mc.acc.join(mc.local[i-1])
		mc.last = i == mc.lastPass()
		if mc.last && mc.r == mc.stop {
			mc.finish()
		}
	}
}

// writeRow0 completes line 2: it joins the argument into the value
// acc was started at (the current contents of scan[P][0]), writes the
// result and begins pass 1.
func (mc *ScanMachine) writeRow0(m pram.Memory) {
	mc.acc.join(mc.cur)
	mc.local[0] = mc.acc.end()
	m.Write(mc.proc, mc.own, mc.local[0])
	mc.startPass(1)
}

// endPass freezes the pass accumulator into pass i's value.
func (mc *ScanMachine) endPass() any {
	mc.local[mc.i] = mc.acc.end()
	return mc.local[mc.i]
}

// finish completes the operation in progress with the final pass's
// value.
func (mc *ScanMachine) finish() {
	mc.results = append(mc.results, mc.endPass())
	mc.ph, mc.last = phIdle, false
}

// Step performs the machine's next shared-memory access: a pass's
// read here, any other access in turn. Reads are n²−1 of an optimized
// scan's n²+n accesses.
func (mc *ScanMachine) Step(m pram.Memory) {
	if mc.r == mc.stop {
		mc.turn(m)
		return
	}
	// Line 5: join in scan[Q][i-1], then aim at the next Q.
	mc.acc.join(m.Read(mc.proc, mc.r))
	if mc.r += mc.lay.N + 2; mc.r == mc.skip {
		mc.r += mc.lay.N + 2
	}
	if mc.last && mc.r == mc.stop {
		// Optimized variant: the very last write is unnecessary
		// (Section 6.2); the final pass ends at its last read.
		mc.finish()
	}
}

// turn performs every access but a pass's reads: line 2 and the
// write that ends a pass.
func (mc *ScanMachine) turn(m pram.Memory) {
	switch mc.ph {
	case phPass:
		// End of pass: write scan[P][i].
		m.Write(mc.proc, mc.own+mc.i, mc.endPass())
		if mc.i == mc.lastPass() {
			mc.finish()
			return
		}
		mc.startPass(mc.i + 1)

	case phIdle:
		if len(mc.queue) == 0 {
			panic("snapshot: Step after Done")
		}
		mc.cur = mc.queue[0]
		mc.queue = slices.Delete(mc.queue, 0, 1) // keeps the backing array
		if mc.optimized {
			// Line 2 without the self-read: the local copy stands in
			// for the current register contents.
			mc.acc.start(mc.local[0])
			mc.writeRow0(m)
			return
		}
		// Line 2, literal: read scan[P][0] ...
		mc.acc.start(m.Read(mc.proc, mc.own))
		mc.ph = phInitWrite

	case phInitWrite:
		// ... then write v ∨ scan[P][0].
		mc.writeRow0(m)

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
