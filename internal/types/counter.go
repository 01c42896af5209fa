// Package types provides the concrete data types the paper's Section
// 5.1 uses to illustrate Property 1 — the counter with inc/dec/reset/
// read, logical clocks, set abstractions, and a max-register — as
// sequential specifications consumable by the universal construction
// (internal/core), plus a FIFO queue that deliberately fails Property 1
// to witness the boundary of the characterization.
//
// The package also contains optimized, type-specific wait-free native
// implementations (DirectCounter, DirectClock) exploiting the closing
// remark of Section 5.4: "For any particular data type, it should be
// possible to apply type-specific optimizations to discard most of the
// precedence graph."
package types

import (
	"fmt"
	"strconv"

	"repro/internal/spec"
)

// Counter ops. Every argument is an int64.
const (
	OpInc   = "inc"
	OpDec   = "dec"
	OpReset = "reset"
	OpRead  = "read"
)

// Inc returns an inc(amount) invocation.
func Inc(amount int64) spec.Inv { return spec.Inv{Op: OpInc, Arg: amount} }

// Dec returns a dec(amount) invocation.
func Dec(amount int64) spec.Inv { return spec.Inv{Op: OpDec, Arg: amount} }

// Reset returns a reset(amount) invocation.
func Reset(amount int64) spec.Inv { return spec.Inv{Op: OpReset, Arg: amount} }

// Read returns a read() invocation.
func Read() spec.Inv { return spec.Inv{Op: OpRead} }

// Counter is the paper's worked example of a Property 1 type
// (Section 5.1): inc and dec commute, every operation overwrites read,
// and reset overwrites every operation. Its state is the current
// int64 value; read returns it, the other operations return nil.
type Counter struct{}

// Name identifies the type.
func (Counter) Name() string { return "counter" }

// Init returns the zero counter.
func (Counter) Init() spec.State { return int64(0) }

// Apply executes one operation.
func (Counter) Apply(s spec.State, inv spec.Inv) (spec.State, any) {
	v := s.(int64)
	switch inv.Op {
	case OpInc:
		return v + inv.Arg.(int64), nil
	case OpDec:
		return v - inv.Arg.(int64), nil
	case OpReset:
		return inv.Arg.(int64), nil
	case OpRead:
		return v, v
	default:
		panic(fmt.Sprintf("counter: unknown operation %q", inv.Op))
	}
}

// Equal compares states.
func (Counter) Equal(a, b spec.State) bool { return a.(int64) == b.(int64) }

// Key encodes the state canonically.
func (Counter) Key(s spec.State) string { return strconv.FormatInt(s.(int64), 10) }

// Commutes implements Definition 10 for the counter:
// inc/dec commute with inc/dec; read commutes with read; reset
// commutes with nothing except through overwriting.
func (Counter) Commutes(p, q spec.Inv) bool {
	mut := func(op string) bool { return op == OpInc || op == OpDec }
	switch {
	case mut(p.Op) && mut(q.Op):
		return true
	case p.Op == OpRead && q.Op == OpRead:
		return true
	default:
		return false
	}
}

// Overwrites implements Definition 11 for the counter: q overwrites p
// if q is a reset (reset obliterates all prior state), or p is a read
// (reads have no effect, so anything after them hides them).
func (Counter) Overwrites(q, p spec.Inv) bool {
	return q.Op == OpReset || p.Op == OpRead
}

// SampleInvocations returns a representative invocation set for
// algebra checking and benchmarks.
func (Counter) SampleInvocations() []spec.Inv {
	return []spec.Inv{
		Inc(1), Inc(5), Dec(1), Dec(3), Reset(0), Reset(42), Read(),
	}
}

// SampleStates returns representative states for algebra checking.
func (Counter) SampleStates() []spec.State {
	return []spec.State{int64(0), int64(1), int64(-7), int64(1000)}
}

// Pure declares read as having no effect, enabling the universal
// construction's unpublished-read optimization.
func (Counter) Pure(inv spec.Inv) bool { return inv.Op == OpRead }
