package types

import (
	"fmt"
	"slices"

	"repro/internal/spec"
)

// KCounter (counter-vector) ops.
const (
	OpVInc  = "vinc"
	OpVRead = "vread"
	OpVSum  = "vsum"
	OpVZero = "vzero"
)

// KD is a vinc argument: the key and the signed delta.
type KD struct {
	K string
	D int64
}

// VInc builds a vinc(k, d) invocation: add d to key k's counter.
func VInc(k string, d int64) spec.Inv { return spec.Inv{Op: OpVInc, Arg: KD{k, d}} }

// VRead builds a vread(k) invocation; its response is key k's value
// (0 when never incremented).
func VRead(k string) spec.Inv { return spec.Inv{Op: OpVRead, Arg: k} }

// VSum builds a vsum() invocation; its response is the sum over every
// key.
func VSum() spec.Inv { return spec.Inv{Op: OpVSum} }

// VZero builds a vzero() invocation: reset every key to 0.
func VZero() spec.Inv { return spec.Inv{Op: OpVZero} }

// kcState is an immutable key→count state; keys at 0 are absent, so
// the representation is canonical.
type kcState = sorted[int64]

// KCounter is a counter-vector: a map of named counters. It is the
// keyed closure of the paper's fetch-and-add counter (Section 5.1) —
// increments commute regardless of key (addition is commutative),
// reads of one key commute with increments of any other, the global
// reset overwrites everything, and both reads are overwritten by
// everything — so Property 1 holds. Unlike the directory it is also
// batchable (increments to the SAME key commute too), and unlike the
// scalar counter it is keyed, which makes it the canonical type for
// the sharded universal construction: vinc/vread route by key, while
// vsum and vzero are cross-partition.
type KCounter struct{}

// Name identifies the type.
func (KCounter) Name() string { return "kcounter" }

// Init returns the all-zero vector.
func (KCounter) Init() spec.State { return kcState(nil) }

// Apply executes one operation.
func (KCounter) Apply(s spec.State, inv spec.Inv) (spec.State, any) {
	m := s.(kcState)
	switch inv.Op {
	case OpVInc:
		kd := inv.Arg.(KD)
		if kd.D == 0 {
			return s, nil
		}
		if v := m.get(kd.K) + kd.D; v != 0 {
			return m.with(kd.K, v), nil
		}
		return m.without(kd.K), nil
	case OpVRead:
		return s, m.get(inv.Arg.(string))
	case OpVSum:
		var sum int64
		for _, e := range m {
			sum += e.v
		}
		return s, sum
	case OpVZero:
		return kcState(nil), nil
	default:
		panic(fmt.Sprintf("kcounter: unknown operation %q", inv.Op))
	}
}

// Equal compares states entry-wise (canonical representation: no zero
// entries).
func (KCounter) Equal(a, b spec.State) bool { return slices.Equal(a.(kcState), b.(kcState)) }

// Key encodes the state canonically and injectively (see sorted.key).
func (KCounter) Key(s spec.State) string { return s.(kcState).key() }

// kcKey returns the key an invocation touches, or "" for the
// cross-key vsum/vzero.
func kcKey(in spec.Inv) string {
	switch in.Op {
	case OpVInc:
		return in.Arg.(KD).K
	case OpVRead:
		return in.Arg.(string)
	default:
		return ""
	}
}

// Commutes: increments commute with increments (addition), reads with
// reads, an increment with a read of a different key, and resets with
// resets (both end empty with nil responses).
func (KCounter) Commutes(p, q spec.Inv) bool {
	pp, qp := p.Op == OpVRead || p.Op == OpVSum, q.Op == OpVRead || q.Op == OpVSum
	if pp && qp {
		return true
	}
	if p.Op == OpVInc && q.Op == OpVInc {
		return true
	}
	if p.Op == OpVZero && q.Op == OpVZero {
		return true
	}
	if p.Op == OpVInc && q.Op == OpVRead {
		return kcKey(p) != kcKey(q)
	}
	if p.Op == OpVRead && q.Op == OpVInc {
		return kcKey(p) != kcKey(q)
	}
	return false
}

// Overwrites: vzero overwrites everything; everything overwrites the
// pure vread and vsum.
func (KCounter) Overwrites(q, p spec.Inv) bool {
	return q.Op == OpVZero || p.Op == OpVRead || p.Op == OpVSum
}

// SampleInvocations returns a representative invocation set. The
// negative delta matters: it makes counts non-monotone, so tests of
// the sharded snapshot cannot lean on grow-only state.
func (KCounter) SampleInvocations() []spec.Inv {
	return []spec.Inv{
		VInc("a", 1), VInc("a", 2), VInc("b", 1), VInc("b", -1),
		VRead("a"), VRead("b"), VSum(), VZero(),
	}
}

// SampleStates returns representative states.
func (KCounter) SampleStates() []spec.State {
	return []spec.State{
		kcState{},
		kcState{{"a", 1}},
		kcState{{"a", 2}, {"b", -1}, {"c", 5}},
	}
}

// Pure declares vread and vsum as having no effect.
func (KCounter) Pure(inv spec.Inv) bool { return inv.Op == OpVRead || inv.Op == OpVSum }
