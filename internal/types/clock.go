package types

import (
	"fmt"

	"repro/internal/lattice"
	"repro/internal/spec"
)

// Logical clock ops.
const (
	OpMerge     = "merge"     // merge a remote vector timestamp
	OpReadClock = "readclock" // read the current vector timestamp
)

// Merge returns a merge(timestamp) invocation; the argument is a
// lattice.IntMap vector timestamp.
func Merge(ts lattice.IntMap) spec.Inv { return spec.Inv{Op: OpMerge, Arg: ts} }

// ReadClock returns a readclock() invocation.
func ReadClock() spec.Inv { return spec.Inv{Op: OpReadClock} }

// Clock is a logical clock in the sense of Lamport's "Time, Clocks,
// and the Ordering of Events" (the paper's reference [33], named in
// Section 1 as implementable by this construction): its state is a
// vector timestamp, merge joins in a remote timestamp (key-wise max),
// and readclock returns the current vector. Merges commute because
// key-wise max is a semilattice join; every operation overwrites
// readclock.
type Clock struct{}

// Name identifies the type.
func (Clock) Name() string { return "logical-clock" }

// Init returns the zero clock.
func (Clock) Init() spec.State { return lattice.IntMap(nil) }

// Apply executes one operation.
func (Clock) Apply(s spec.State, inv spec.Inv) (spec.State, any) {
	v := s.(lattice.IntMap)
	switch inv.Op {
	case OpMerge:
		return lattice.MapMax{}.Join(v, inv.Arg.(lattice.IntMap)), nil
	case OpReadClock:
		return v, copyMap(v)
	default:
		panic(fmt.Sprintf("clock: unknown operation %q", inv.Op))
	}
}

// Equal compares states key-wise.
func (Clock) Equal(a, b spec.State) bool {
	l := lattice.MapMax{}
	return l.Leq(a, b) && l.Leq(b, a)
}

// Key encodes the state canonically and injectively: its entries in
// key order (see sorted.key).
func (Clock) Key(s spec.State) string { return sortedOf(s.(lattice.IntMap)).key() }

// Commutes: merges commute with merges, reads with reads.
func (Clock) Commutes(p, q spec.Inv) bool {
	return (p.Op == OpMerge && q.Op == OpMerge) ||
		(p.Op == OpReadClock && q.Op == OpReadClock)
}

// Overwrites: everything overwrites readclock.
func (Clock) Overwrites(q, p spec.Inv) bool { return p.Op == OpReadClock }

// SampleInvocations returns a representative invocation set.
func (Clock) SampleInvocations() []spec.Inv {
	return []spec.Inv{
		Merge(lattice.IntMap{"a": 1}),
		Merge(lattice.IntMap{"a": 3, "b": 2}),
		Merge(lattice.IntMap{"c": 9}),
		ReadClock(),
	}
}

// SampleStates returns representative states.
func (Clock) SampleStates() []spec.State {
	return []spec.State{
		lattice.IntMap(nil),
		lattice.IntMap{"a": 2},
		lattice.IntMap{"a": 1, "b": 5, "c": 2},
	}
}

func copyMap(m lattice.IntMap) lattice.IntMap {
	out := make(lattice.IntMap, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Pure declares readclock as having no effect.
func (Clock) Pure(inv spec.Inv) bool { return inv.Op == OpReadClock }
