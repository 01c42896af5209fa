package types

import (
	"fmt"
	"strconv"

	"repro/internal/spec"
)

// Queue ops.
const (
	OpEnq = "enq"
	OpDeq = "deq"
)

// Enq returns an enq(v) invocation.
func Enq(v string) spec.Inv { return spec.Inv{Op: OpEnq, Arg: v} }

// Deq returns a deq() invocation; its response is the dequeued element
// or "" on empty (the operation is total, per Section 3.2).
func Deq() spec.Inv { return spec.Inv{Op: OpDeq} }

// Queue is a FIFO queue — the canonical NON-example. Section 1 notes
// that queues solve two-process consensus and therefore have no
// deterministic wait-free implementation from registers at all; here
// the failure manifests algebraically: two deq invocations neither
// commute (their responses swap) nor overwrite one another, so
// Property 1 fails and the universal construction rightly refuses the
// type. Experiment E10 prints the witness pair.
type Queue struct{}

// queueState is an immutable snapshot of queue contents.
type queueState []string

// Name identifies the type.
func (Queue) Name() string { return "queue" }

// Init returns the empty queue.
func (Queue) Init() spec.State { return queueState(nil) }

// Apply executes one operation. Deq on empty returns "" (total
// operations only).
func (Queue) Apply(s spec.State, inv spec.Inv) (spec.State, any) {
	v := s.(queueState)
	switch inv.Op {
	case OpEnq:
		out := make(queueState, len(v)+1)
		copy(out, v)
		out[len(v)] = inv.Arg.(string)
		return out, nil
	case OpDeq:
		if len(v) == 0 {
			return v, ""
		}
		return append(queueState(nil), v[1:]...), v[0]
	default:
		panic(fmt.Sprintf("queue: unknown operation %q", inv.Op))
	}
}

// Equal compares states element-wise.
func (Queue) Equal(a, b spec.State) bool {
	x, y := a.(queueState), b.(queueState)
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// Key encodes the state injectively: the elements in order, each
// quoted.
func (Queue) Key(s spec.State) string {
	var b []byte
	for _, e := range s.(queueState) {
		b = strconv.AppendQuote(b, e)
	}
	return string(b)
}

// Commutes: identical enqueues commute trivially (the two orders are
// the same history), but nothing else does: the order of distinct
// enqueues is observable by later dequeues, and two dequeues' responses
// swap. (Two deqs on a queue known to be empty would commute, but
// Definition 10 quantifies over all histories.)
func (Queue) Commutes(p, q spec.Inv) bool {
	return p.Op == OpEnq && q.Op == OpEnq && p.Arg == q.Arg
}

// Overwrites: nothing overwrites anything — every operation's effect
// remains observable. (A deq does change the state, so it does not act
// like a read.)
func (Queue) Overwrites(q, p spec.Inv) bool { return false }

// SampleInvocations returns a representative invocation set.
func (Queue) SampleInvocations() []spec.Inv {
	return []spec.Inv{Enq("a"), Enq("b"), Deq()}
}

// SampleStates returns representative states.
func (Queue) SampleStates() []spec.State {
	return []spec.State{
		queueState(nil),
		queueState{"a"},
		queueState{"a", "b", "c"},
	}
}
