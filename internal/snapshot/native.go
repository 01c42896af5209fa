package snapshot

import (
	"fmt"
	"sync/atomic"

	"repro/apram/obs"
	"repro/internal/lattice"
)

// box wraps a lattice element so registers can hold values of any
// concrete type behind an atomic pointer.
type box struct{ v any }

// Snapshot is the native (goroutine-ready) atomic scan object over an
// arbitrary ∨-semilattice, using the Section 6.2 optimized loop.
//
// Each process index owns its row of registers and its local-copy
// state, so a given index must be used by at most one goroutine at a
// time; distinct indices may run fully concurrently. Every operation
// is wait-free: exactly n+1 writes and n²−1 reads of atomic registers,
// regardless of what other goroutines do.
type Snapshot struct {
	lat   lattice.Lattice
	ip    lattice.InPlace // non-nil when lat supports in-place joins
	n     int
	cells [][]atomic.Pointer[box] // cells[p][i] = scan[p][i]
	local [][]any                 // local[p][i], owned by process p

	probe   obs.Probe // nil when uninstrumented (the fast path)
	emitOps bool      // report OpScan completions (false when nested)
}

// New returns an n-process snapshot object over lat.
func New(n int, lat lattice.Lattice) *Snapshot {
	if n <= 0 {
		panic("snapshot: need at least one process")
	}
	s := &Snapshot{
		lat:   lat,
		n:     n,
		cells: make([][]atomic.Pointer[box], n),
		local: make([][]any, n),
	}
	if ip, ok := lat.(lattice.InPlace); ok {
		s.ip = ip
	}
	bot := &box{lat.Bottom()}
	for p := 0; p < n; p++ {
		s.cells[p] = make([]atomic.Pointer[box], n+2)
		s.local[p] = make([]any, n+2)
		for i := 0; i <= n+1; i++ {
			s.cells[p][i].Store(bot)
			s.local[p][i] = bot.v
		}
	}
	return s
}

// N returns the number of process slots.
func (s *Snapshot) N() int { return s.n }

// Instrument attaches a probe. With emitOps set, every Scan (and so
// Update/ReadMax) reports an obs.OpScan completion; objects that embed
// a snapshot pass false so register counts flow to the probe while
// operation attribution stays with the outer object. Attach before the
// object is shared between goroutines; probes must be wait-free (see
// package obs).
func (s *Snapshot) Instrument(p obs.Probe, emitOps bool) {
	s.probe = p
	s.emitOps = emitOps && p != nil
}

// Lattice returns the lattice the snapshot operates over.
func (s *Snapshot) Lattice() lattice.Lattice { return s.lat }

// Scan joins v into the shared state and returns the join of all
// values written so far (Figure 5). It is linearizable (Theorem 33)
// and wait-free. Use Bottom for v to read without contributing.
func (s *Snapshot) Scan(p int, v any) any {
	s.check(p)
	if s.emitOps {
		obs.Begin(s.probe, p, obs.OpScan)
	}
	local := s.local[p]
	// reads and writes count the atomic register accesses actually
	// performed, at their callsites — Section 6.2 predicts exactly
	// n²−1 and n+1 per Scan, and the probe reports what happened, not
	// the formula. Plain locals: free when no probe is attached.
	reads, writes := 0, 0
	// scan[P][0] := v ∨ scan[P][0], self-read elided via local copy.
	local[0] = s.lat.Join(v, local[0])
	s.cells[p][0].Store(&box{local[0]})
	writes++
	for i := 1; i <= s.n+1; i++ {
		var acc any
		if s.ip != nil {
			// In-place fast path: one allocation per pass instead of
			// one per join (ablated in BenchmarkScanJoinAblation).
			a := s.ip.NewAccum(local[i])
			a = s.ip.Accumulate(a, local[i-1])
			for q := 0; q < s.n; q++ {
				if q == p {
					continue
				}
				a = s.ip.Accumulate(a, s.cells[q][i-1].Load().v)
				reads++
			}
			acc = s.ip.Freeze(a)
		} else {
			acc = s.lat.Join(local[i], local[i-1])
			for q := 0; q < s.n; q++ {
				if q == p {
					continue
				}
				acc = s.lat.Join(acc, s.cells[q][i-1].Load().v)
				reads++
			}
		}
		local[i] = acc
		if i <= s.n {
			// The final write (to scan[P][n+1]) is unnecessary.
			s.cells[p][i].Store(&box{acc})
			writes++
		}
	}
	if s.probe != nil {
		s.probe.RegReads(p, reads)
		s.probe.RegWrites(p, writes)
		if s.emitOps {
			s.probe.OpDone(p, obs.OpScan)
		}
	}
	return local[s.n+1]
}

// Update is the Write_L operation: join v into the shared state,
// discarding the scan result.
func (s *Snapshot) Update(p int, v any) { s.Scan(p, v) }

// ReadMax returns the join of all values written by Update and Scan
// operations linearized before it.
func (s *Snapshot) ReadMax(p int) any { return s.Scan(p, s.lat.Bottom()) }

func (s *Snapshot) check(p int) {
	if p < 0 || p >= s.n {
		panic(fmt.Sprintf("snapshot: process %d out of range [0,%d)", p, s.n))
	}
}
