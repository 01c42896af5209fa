package types

import (
	"fmt"
	"slices"
	"strconv"

	"repro/internal/spec"
)

// Set ops.
const (
	OpAdd     = "add"
	OpClear   = "clear"
	OpMembers = "members"
)

// Add returns an add(elem) invocation.
func Add(elem string) spec.Inv { return spec.Inv{Op: OpAdd, Arg: elem} }

// Clear returns a clear() invocation.
func Clear() spec.Inv { return spec.Inv{Op: OpClear} }

// Members returns a members() invocation; its response is the sorted
// member list.
func Members() spec.Inv { return spec.Inv{Op: OpMembers} }

// setState is an immutable string set state.
type setState = sorted[struct{}]

// GSet is one of the paper's "certain kinds of set abstractions"
// (Section 1): a set whose add operations commute with each other,
// whose clear overwrites everything, and whose members query is
// overwritten by everything. Removal of individual elements is
// deliberately absent — remove(x) neither commutes with add(x) nor
// overwrites it, so it would break Property 1 (and indeed such a set
// solves consensus).
type GSet struct{}

// Name identifies the type.
func (GSet) Name() string { return "gset" }

// Init returns the empty set.
func (GSet) Init() spec.State { return setState(nil) }

// Apply executes one operation.
func (GSet) Apply(s spec.State, inv spec.Inv) (spec.State, any) {
	v := s.(setState)
	switch inv.Op {
	case OpAdd:
		elem := inv.Arg.(string)
		if _, ok := v.find(elem); ok {
			return s, nil
		}
		return v.with(elem, struct{}{}), nil
	case OpClear:
		return setState(nil), nil
	case OpMembers:
		out := make([]string, len(v))
		for i, e := range v {
			out[i] = e.k
		}
		return s, out
	default:
		panic(fmt.Sprintf("gset: unknown operation %q", inv.Op))
	}
}

// Equal compares states as sets.
func (GSet) Equal(a, b spec.State) bool { return slices.Equal(a.(setState), b.(setState)) }

// Key encodes the state canonically and injectively: the sorted
// elements, each length-prefixed (see sorted.key).
func (GSet) Key(s spec.State) string { return s.(setState).key() }

// Commutes: adds commute with adds (set union is order-independent),
// members with members, clears with clears (both end empty with nil
// responses).
func (GSet) Commutes(p, q spec.Inv) bool {
	return (p.Op == OpAdd && q.Op == OpAdd) ||
		(p.Op == OpMembers && q.Op == OpMembers) ||
		(p.Op == OpClear && q.Op == OpClear)
}

// Overwrites: clear overwrites everything; everything overwrites
// members.
func (GSet) Overwrites(q, p spec.Inv) bool {
	return q.Op == OpClear || p.Op == OpMembers
}

// SampleInvocations returns a representative invocation set.
func (GSet) SampleInvocations() []spec.Inv {
	return []spec.Inv{Add("x"), Add("y"), Add("x"), Clear(), Members()}
}

// SampleStates returns representative states.
func (GSet) SampleStates() []spec.State {
	return []spec.State{
		setState{},
		setState{{k: "x"}},
		setState{{k: "x"}, {k: "y"}, {k: "z"}},
	}
}

// Pure declares members as having no effect.
func (GSet) Pure(inv spec.Inv) bool { return inv.Op == OpMembers }

// MaxReg ops.
const (
	OpWriteMax = "writemax"
	OpReadMax  = "readmax"
)

// WriteMax returns a writemax(v) invocation.
func WriteMax(v int64) spec.Inv { return spec.Inv{Op: OpWriteMax, Arg: v} }

// ReadMaxInv returns a readmax() invocation.
func ReadMaxInv() spec.Inv { return spec.Inv{Op: OpReadMax} }

// MaxReg is a max-register: writemax(v) raises the state to at least
// v, readmax returns the current maximum. Writemax operations commute
// (max is a join); everything overwrites readmax.
type MaxReg struct{}

// Name identifies the type.
func (MaxReg) Name() string { return "maxreg" }

// Init returns the smallest state (0; the register holds naturals).
func (MaxReg) Init() spec.State { return int64(0) }

// Apply executes one operation.
func (MaxReg) Apply(s spec.State, inv spec.Inv) (spec.State, any) {
	v := s.(int64)
	switch inv.Op {
	case OpWriteMax:
		w := inv.Arg.(int64)
		if w > v {
			return w, nil
		}
		return v, nil
	case OpReadMax:
		return v, v
	default:
		panic(fmt.Sprintf("maxreg: unknown operation %q", inv.Op))
	}
}

// Equal compares states.
func (MaxReg) Equal(a, b spec.State) bool { return a.(int64) == b.(int64) }

// Key encodes the state canonically.
func (MaxReg) Key(s spec.State) string { return strconv.FormatInt(s.(int64), 10) }

// Commutes: writemaxes commute, reads commute.
func (MaxReg) Commutes(p, q spec.Inv) bool {
	return (p.Op == OpWriteMax && q.Op == OpWriteMax) ||
		(p.Op == OpReadMax && q.Op == OpReadMax)
}

// Overwrites: everything overwrites readmax; a writemax also
// overwrites any writemax of a smaller-or-equal value... except that
// Definition 11 quantifies over all states, so only the read rule is
// safe to declare unconditionally. (writemax(5) overwrites writemax(3)
// in every state, since max(max(s,3),5) = max(s,5); declare that too.)
func (MaxReg) Overwrites(q, p spec.Inv) bool {
	if p.Op == OpReadMax {
		return true
	}
	if q.Op == OpWriteMax && p.Op == OpWriteMax {
		return q.Arg.(int64) >= p.Arg.(int64)
	}
	return false
}

// SampleInvocations returns a representative invocation set.
func (MaxReg) SampleInvocations() []spec.Inv {
	return []spec.Inv{WriteMax(1), WriteMax(7), WriteMax(7), ReadMaxInv()}
}

// SampleStates returns representative states.
func (MaxReg) SampleStates() []spec.State {
	return []spec.State{int64(0), int64(3), int64(100)}
}

// Pure declares readmax as having no effect.
func (MaxReg) Pure(inv spec.Inv) bool { return inv.Op == OpReadMax }
