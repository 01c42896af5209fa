// Batch: the combinator behind the apram/serve slot-multiplexing
// layer. A batch composes several invocations of a base spec into one
// invocation of a derived spec, so the universal construction pays its
// two anchor-array scans once per *batch* instead of once per logical
// operation — the Section 2 cost model charges only shared accesses,
// which makes this amortization free.
//
// Soundness is the interesting part. Property 1 does NOT lift to
// arbitrary batches: for the directory, [put(k,a) put(j,b)] and
// [put(k,c) put(m,d)] are each internally commuting, yet the pair
// neither commutes (the k-puts conflict) nor overwrites either way
// (the j-put and m-put survive independently). The combinator
// therefore (1) only admits *internally pairwise-commuting* batches —
// CanBatch is the admission rule the serve workers apply — and (2)
// derives the batch algebra in a way provable from the base algebra:
//
//   - Commutes(B1,B2): every cross pair commutes. Then any
//     interleaving of B1 and B2 can be reordered pairwise without
//     changing responses or the final state (Definition 10 applied
//     swap by swap).
//   - Overwrites(B2,B1): every p ∈ B1 is overwritten by some q ∈ B2.
//     Because a valid batch is internally commuting, its application
//     order is irrelevant, so B2 may be reordered to put p's
//     overwriter first; eliminating B1's elements last-to-first this
//     way reduces H·B1·B2 to H·B2 with B2's responses intact
//     (Definition 11 applied element by element).
//
// Even with those derivations, whether the *reachable* batches of a
// given base spec satisfy Property 1 remains type-dependent —
// CheckBatchable decides it by enumerating commuting batches over the
// spec's sample invocations, and apram/serve degrades to singleton
// batches (cap 1, always sound: Property 1 over singletons is the
// base Property 1) when the check fails or cannot run.
package spec

import (
	"strings"
	"sync/atomic"
)

// BatchOp is the operation name of a batched invocation.
const BatchOp = "batch"

// batchArg is the argument payload of a batched invocation. Alongside
// the inner invocations it memoizes the internal-commutativity check
// (valid): the linearization engine evaluates the batch algebra over
// the same long-lived entries on every rebuild, and revalidating a
// cap-k batch is O(k²) base-algebra calls each time. The cache is a
// single atomic so entries shared across process slots can be
// evaluated concurrently. A batch invocation is built for exactly one
// object, so caching a spec-dependent fact inside it is sound.
type batchArg struct {
	invs  []Inv
	valid atomic.Int32 // 0 unknown, 1 internally commuting, -1 not
}

// String renders the inner invocations, so error messages and traces
// show the batch contents rather than a pointer.
func (a *batchArg) String() string {
	parts := make([]string, len(a.invs))
	for i, in := range a.invs {
		parts[i] = in.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// BatchInv composes invocations into one batched invocation. The
// caller is responsible for the admission rule (CanBatch): the derived
// algebra of Batch treats internally non-commuting batches as
// relating to nothing, so an inadmissible batch still executes but
// forfeits the algebraic guarantees.
func BatchInv(invs ...Inv) Inv {
	return Inv{Op: BatchOp, Arg: &batchArg{invs: append([]Inv(nil), invs...)}}
}

// BatchOf returns the inner invocations of a batched invocation, or
// false when inv is not a well-formed batch. A plain []Inv argument
// (e.g. a batch reconstructed from a serialized trace) is accepted
// alongside the BatchInv form.
func BatchOf(inv Inv) ([]Inv, bool) {
	if inv.Op != BatchOp {
		return nil, false
	}
	switch a := inv.Arg.(type) {
	case *batchArg:
		return a.invs, true
	case []Inv:
		return a, true
	}
	return nil, false
}

// CanBatch is the admission rule: next may join a batch already
// holding invs iff it commutes with every member (both directions —
// Definition 10 is symmetric, but declared algebras are only trusted
// as far as they are checked).
func CanBatch(base Spec, invs []Inv, next Inv) bool {
	for _, p := range invs {
		if !base.Commutes(p, next) || !base.Commutes(next, p) {
			return false
		}
	}
	return true
}

// Batch lifts base to its batched form: invocations are BatchInv
// groups, the response is the []any of inner responses in batch
// order, and the commute/overwrite algebra is derived per the package
// comment. States, Equal and Key delegate to base unchanged, so a
// batched object's state space is the base state space.
func Batch(base Spec) Spec { return batched{base: base} }

type batched struct{ base Spec }

func (b batched) Name() string { return "batch(" + b.base.Name() + ")" }
func (b batched) Init() State  { return b.base.Init() }

func (b batched) Equal(x, y State) bool { return b.base.Equal(x, y) }
func (b batched) Key(s State) string    { return b.base.Key(s) }

// Unwrap exposes the base spec: the batch's state and key space ARE
// the base spec's, so the partition gate (AsPartitionable) delegates
// to it.
func (b batched) Unwrap() Spec { return b.base }

// Apply runs the inner invocations in order and collects their
// responses. For valid (internally commuting) batches the order is
// immaterial; for invalid ones it is still deterministic, which keeps
// Apply total.
func (b batched) Apply(s State, inv Inv) (State, any) {
	invs, ok := BatchOf(inv)
	if !ok {
		panic("spec: batched object applied to non-batch invocation " + inv.String())
	}
	resps := make([]any, len(invs))
	for i, in := range invs {
		s, resps[i] = b.base.Apply(s, in)
	}
	return s, resps
}

// valid reports that inv is a batch whose members pairwise commute —
// the only batches the derived algebra speaks about. The answer is
// memoized in the batchArg (see its comment); trace-reconstructed
// []Inv batches are validated on every call.
func (b batched) valid(inv Inv) bool {
	a, _ := inv.Arg.(*batchArg)
	if a != nil {
		if v := a.valid.Load(); v != 0 {
			return v > 0
		}
	}
	invs, ok := BatchOf(inv)
	if !ok {
		return false
	}
	v := validInvs(b.base, invs)
	if a != nil {
		if v {
			a.valid.Store(1)
		} else {
			a.valid.Store(-1)
		}
	}
	return v
}

func validInvs(base Spec, invs []Inv) bool {
	for i, p := range invs {
		if !CanBatch(base, invs[:i], p) {
			return false
		}
	}
	return true
}

// Commutes: both batches valid and every cross pair commutes.
func (b batched) Commutes(p, q Inv) bool {
	ps, ok1 := BatchOf(p)
	qs, ok2 := BatchOf(q)
	if !ok1 || !ok2 || !b.valid(p) || !b.valid(q) {
		return false
	}
	for _, pi := range ps {
		for _, qi := range qs {
			if !b.base.Commutes(pi, qi) || !b.base.Commutes(qi, pi) {
				return false
			}
		}
	}
	return true
}

// Overwrites: q overwrites p when both are valid and every element of
// p is overwritten by some element of q. The empty batch is a no-op:
// everything overwrites it, and it overwrites only no-ops.
func (b batched) Overwrites(q, p Inv) bool {
	qs, ok1 := BatchOf(q)
	ps, ok2 := BatchOf(p)
	if !ok1 || !ok2 || !b.valid(q) || !b.valid(p) {
		return false
	}
	for _, pi := range ps {
		over := false
		for _, qi := range qs {
			if b.base.Overwrites(qi, pi) {
				over = true
				break
			}
		}
		if !over {
			return false
		}
	}
	return true
}

// Pure: a batch is pure when every inner invocation is pure under the
// base spec — this is what lets a batch of reads ride the universal
// construction's one-scan elision.
func (b batched) Pure(inv Inv) bool {
	invs, ok := BatchOf(inv)
	if !ok {
		return false
	}
	for _, in := range invs {
		if !IsPure(b.base, in) {
			return false
		}
	}
	return true
}

// CommutingBatches enumerates the internally commuting batches of up
// to maxSize invocations drawn (as combinations, order-free) from
// invs — the sample universe CheckBatchable quantifies over.
func CommutingBatches(base Spec, invs []Inv, maxSize int) []Inv {
	var out []Inv
	var rec func(start int, cur []Inv)
	rec = func(start int, cur []Inv) {
		if len(cur) > 0 {
			out = append(out, BatchInv(cur...))
		}
		if len(cur) == maxSize {
			return
		}
		for i := start; i < len(invs); i++ {
			if CanBatch(base, cur, invs[i]) {
				rec(i+1, append(append([]Inv(nil), cur...), invs[i]))
			}
		}
	}
	rec(0, nil)
	return out
}

// CheckBatchable reports whether Batch(base) satisfies Property 1
// over the batches CommutingBatches forms from invs (sizes up to 3 —
// enough to exhibit every known violation shape, cheap enough to run
// at construction time). On failure it returns a witness pair of
// batch invocations, e.g. the directory counterexample from the
// package comment. A false result means a serving layer must not
// compose batches of this type (apram/serve falls back to singleton
// batches); a true result is sampling evidence, like CheckAlgebra.
func CheckBatchable(base Spec, invs []Inv) (bool, [2]Inv) {
	b := Batch(base)
	batches := CommutingBatches(base, invs, 3)
	for _, p := range batches {
		for _, q := range batches {
			if !b.Commutes(p, q) && !b.Overwrites(p, q) && !b.Overwrites(q, p) {
				return false, [2]Inv{p, q}
			}
		}
	}
	return true, [2]Inv{}
}
