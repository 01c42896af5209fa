package types

import (
	"fmt"

	"repro/apram/obs"
	"repro/internal/lattice"
	"repro/internal/snapshot"
	"repro/internal/spec"
)

// This file reproduces the related-work comparator of Section 2:
// Anderson's *pseudo read-modify-write* (PRMW) instructions. "Let F be
// a set of functions that commute with one another. A pseudo
// read-modify-write instruction is parameterized by a function f from
// F. When applied to a memory location holding a value v, it replaces
// the contents with f(v), but does not return a value." The paper
// notes that Anderson's construction uses bounded counters but "does
// not permit overwriting operations" — and indeed this object has no
// reset: commuting updates plus reads only.
//
// Because F commutes, the multiset of applied functions determines the
// state; each process therefore publishes only the fold of its own
// updates, and a read folds everyone's summaries over an atomic
// snapshot. (Like the paper's own constructions — and unlike
// Anderson's — the snapshot tags here are unbounded.)

// CommutingFamily describes a commuting function family F with
// representable composition: an update is a delta, deltas merge
// associatively and commutatively, and the folded delta applies to the
// initial value. Deltas are immutable values.
type CommutingFamily interface {
	// Name identifies the family.
	Name() string
	// Identity is the delta of "no updates".
	Identity() any
	// Merge composes two deltas; it must be associative and
	// commutative with Identity as unit.
	Merge(a, b any) any
	// Apply applies a folded delta to the object's initial value.
	Apply(delta any) any
}

// AddFamily is F = {x ↦ x+k}: folded delta is the sum.
type AddFamily struct{ Init int64 }

// Name identifies the family.
func (AddFamily) Name() string { return "add" }

// Identity returns the zero delta.
func (AddFamily) Identity() any { return int64(0) }

// Merge sums deltas.
func (AddFamily) Merge(a, b any) any { return a.(int64) + b.(int64) }

// Apply adds the fold to the initial value.
func (f AddFamily) Apply(delta any) any { return f.Init + delta.(int64) }

// MaxFamily is F = {x ↦ max(x,k)}: folded delta is the maximum.
type MaxFamily struct{ Init int64 }

// Name identifies the family.
func (MaxFamily) Name() string { return "max" }

// Identity returns the neutral delta (-inf behaves as Init here).
func (MaxFamily) Identity() any { return int64(-1 << 62) }

// Merge takes the maximum.
func (MaxFamily) Merge(a, b any) any {
	if a.(int64) >= b.(int64) {
		return a
	}
	return b
}

// Apply maxes the fold with the initial value.
func (f MaxFamily) Apply(delta any) any {
	if d := delta.(int64); d > f.Init {
		return d
	}
	return f.Init
}

// XorFamily is F = {x ↦ x⊕k}: folded delta is the xor.
type XorFamily struct{ Init uint64 }

// Name identifies the family.
func (XorFamily) Name() string { return "xor" }

// Identity returns the zero delta.
func (XorFamily) Identity() any { return uint64(0) }

// Merge xors deltas.
func (XorFamily) Merge(a, b any) any { return a.(uint64) ^ b.(uint64) }

// Apply xors the fold into the initial value.
func (f XorFamily) Apply(delta any) any { return f.Init ^ delta.(uint64) }

// PRMW is the wait-free pseudo read-modify-write object: Update(f)
// applies a function from the commuting family without returning a
// value; Read returns the current value. Both are linearizable and
// cost one snapshot operation each.
type PRMW struct {
	fam  CommutingFamily
	snap *snapshot.Snapshot
	vl   lattice.Vector
	tag  []uint64
	mine []any // per-process fold of own deltas (owned by the process)

	probe   obs.Probe
	emitOps bool
}

// NewPRMW returns an n-process PRMW object over fam.
func NewPRMW(n int, fam CommutingFamily) *PRMW {
	vl := lattice.Vector{N: n}
	o := &PRMW{
		fam:  fam,
		snap: snapshot.New(n, vl),
		vl:   vl,
		tag:  make([]uint64, n),
		mine: make([]any, n),
	}
	for p := range o.mine {
		o.mine[p] = fam.Identity()
	}
	return o
}

// N returns the number of process slots.
func (o *PRMW) N() int { return o.vl.N }

// Instrument attaches a probe (updates and reads each cost one
// snapshot operation). Attach before sharing.
func (o *PRMW) Instrument(p obs.Probe, emitOps bool) {
	o.probe = p
	o.emitOps = emitOps && p != nil
	o.snap.Instrument(p, false)
}

// Update applies the delta to the object without returning a value.
func (o *PRMW) Update(p int, delta any) {
	if o.emitOps {
		o.probe.OpBegin(p, obs.OpPRMWUpdate)
	}
	o.mine[p] = o.fam.Merge(o.mine[p], delta)
	o.tag[p]++
	o.snap.Update(p, o.vl.Single(p, o.tag[p], o.mine[p]))
	if o.emitOps {
		o.probe.OpDone(p, obs.OpPRMWUpdate)
	}
}

// Read returns the current value: the fold of every process's summary
// applied to the initial value.
func (o *PRMW) Read(p int) any {
	if o.emitOps {
		o.probe.OpBegin(p, obs.OpPRMWRead)
	}
	vec := o.snap.ReadMax(p).(lattice.Vec)
	acc := o.fam.Identity()
	for _, c := range vec {
		if c.Tag != 0 {
			acc = o.fam.Merge(acc, c.Val)
		}
	}
	if o.emitOps {
		o.probe.OpDone(p, obs.OpPRMWRead)
	}
	return o.fam.Apply(acc)
}

// PRMW ops for the derived sequential specification.
const (
	OpPRMWUpdate = "prmw-update"
	OpPRMWRead   = "prmw-read"
)

// PRMWUpdate builds an update(delta) invocation.
func PRMWUpdate(delta any) spec.Inv { return spec.Inv{Op: OpPRMWUpdate, Arg: delta} }

// PRMWRead builds a read() invocation.
func PRMWRead() spec.Inv { return spec.Inv{Op: OpPRMWRead} }

// PRMWSpec derives a sequential specification from a commuting family.
// Updates commute by the family laws and everything overwrites read,
// so any PRMW object satisfies Property 1 by construction — which is
// why the universal construction implements it too (cross-validated in
// the tests).
type PRMWSpec struct {
	Fam CommutingFamily
}

// Name identifies the type.
func (s PRMWSpec) Name() string { return "prmw-" + s.Fam.Name() }

// Init returns the identity fold.
func (s PRMWSpec) Init() spec.State { return s.Fam.Identity() }

// Apply executes one operation; the state is the folded delta.
func (s PRMWSpec) Apply(st spec.State, inv spec.Inv) (spec.State, any) {
	switch inv.Op {
	case OpPRMWUpdate:
		return s.Fam.Merge(st, inv.Arg), nil
	case OpPRMWRead:
		return st, s.Fam.Apply(st)
	default:
		panic(fmt.Sprintf("prmw: unknown operation %q", inv.Op))
	}
}

// Equal compares folded states.
func (s PRMWSpec) Equal(a, b spec.State) bool { return a == b }

// Key encodes the folded state.
func (s PRMWSpec) Key(st spec.State) string { return fmt.Sprint(st) }

// Commutes: updates commute with updates, reads with reads.
func (s PRMWSpec) Commutes(p, q spec.Inv) bool {
	return (p.Op == OpPRMWUpdate && q.Op == OpPRMWUpdate) ||
		(p.Op == OpPRMWRead && q.Op == OpPRMWRead)
}

// Overwrites: everything overwrites read; nothing overwrites an
// update — the very restriction Section 2 records ("it does not permit
// overwriting operations").
func (s PRMWSpec) Overwrites(q, p spec.Inv) bool { return p.Op == OpPRMWRead }

// Pure declares the read as having no effect.
func (s PRMWSpec) Pure(inv spec.Inv) bool { return inv.Op == OpPRMWRead }
