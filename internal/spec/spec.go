// Package spec defines sequential specifications of shared objects and
// the algebraic relations of Section 5.1 — commuting (Definition 10)
// and overwriting (Definition 11) invocations, the dominance order
// (Definition 14), and Property 1, the characterization of objects the
// paper's universal construction can implement wait-free.
//
// A Spec's operations must be total (every invocation has a response in
// every state) and deterministic, matching Section 3.2's restriction.
// Because operations are total and deterministic, Definition 9's
// observational equivalence of histories can be checked through state
// equality on canonical states, which is what CheckAlgebra does.
package spec

import (
	"fmt"
	"reflect"
)

// State is an object state. Implementations must treat states as
// immutable: Apply returns a fresh state rather than mutating.
type State any

// Inv is an invocation: an operation name plus argument. The paper
// writes p_i for the invocation of operation p; the executing process
// is supplied separately where it matters (dominance).
type Inv struct {
	Op  string
	Arg any
}

// String renders the invocation compactly.
func (in Inv) String() string {
	if in.Arg == nil {
		return in.Op + "()"
	}
	return fmt.Sprintf("%s(%v)", in.Op, in.Arg)
}

// Spec is a sequential specification with the algebraic annotations
// the universal construction needs. Commutes and Overwrites declare
// the Definition 10/11 relations; CheckAlgebra validates the
// declarations against the executable Apply on sampled states, so a
// spec that lies about its algebra fails its tests rather than
// producing a non-linearizable object.
type Spec interface {
	// Name identifies the data type.
	Name() string
	// Init returns the initial state.
	Init() State
	// Apply executes inv in state s, returning the new state and the
	// response. It must be total and deterministic and must not mutate
	// s.
	Apply(s State, inv Inv) (State, any)
	// Equal reports behavioural equality of states (Definition 9 on
	// canonical states).
	Equal(a, b State) bool
	// Key returns a canonical encoding of s for memoization.
	Key(s State) string
	// Commutes reports that p and q commute (Definition 10).
	Commutes(p, q Inv) bool
	// Overwrites reports that q overwrites p (Definition 11): after
	// H·p·q it is impossible to tell whether p occurred at all.
	Overwrites(q, p Inv) bool
}

// Pure is an optional extension: a spec may declare operations that
// never change the state (pure reads). The universal construction
// exploits the declaration — a pure operation takes its response from
// the snapshot view and is never published, so it costs one scan
// instead of two and adds nothing to the entry graph. Soundness: a
// pure operation linearizes at its scan's linearization point, and no
// other process's response can depend on an operation with no effect.
// CheckAlgebra validates Pure declarations when present.
type Pure interface {
	// Pure reports that inv leaves every state unchanged.
	Pure(inv Inv) bool
}

// IsPure reports whether s declares inv pure.
func IsPure(s Spec, inv Inv) bool {
	p, ok := s.(Pure)
	return ok && p.Pure(inv)
}

// Dominates implements Definition 14: operation p of process pProc
// dominates operation q of process qProc if (1) p overwrites q but not
// vice versa, or (2) they overwrite each other and pProc > qProc.
func Dominates(s Spec, p Inv, pProc int, q Inv, qProc int) bool {
	pq := s.Overwrites(p, q) // p overwrites q
	qp := s.Overwrites(q, p) // q overwrites p
	switch {
	case pq && !qp:
		return true
	case pq && qp:
		return pProc > qProc
	default:
		return false
	}
}

// SatisfiesProperty1 reports whether every pair of invocations from
// invs either commutes or is related by overwriting — Property 1, the
// constructibility characterization. If not, it returns a witness
// pair.
func SatisfiesProperty1(s Spec, invs []Inv) (bool, [2]Inv) {
	for _, p := range invs {
		for _, q := range invs {
			if !s.Commutes(p, q) && !s.Overwrites(p, q) && !s.Overwrites(q, p) {
				return false, [2]Inv{p, q}
			}
		}
	}
	return true, [2]Inv{}
}

// Violation describes a mismatch between a spec's declared algebra and
// its executable behaviour on a concrete state.
type Violation struct {
	Kind  string // "commute", "overwrite", "property1"
	State State
	P, Q  Inv
	Why   string
}

// String renders the violation.
func (v Violation) String() string {
	return fmt.Sprintf("%s violation at state %v with p=%v q=%v: %s", v.Kind, v.State, v.P, v.Q, v.Why)
}

// CheckAlgebra validates the declared Commutes/Overwrites relations
// against Apply on every provided state and invocation pair, and
// checks Property 1 over the invocation set. With operations total and
// deterministic, the history-quantified Definitions 10/11 reduce, on a
// state s reachable by some history H, to:
//
//	commute:  Apply(Apply(s,p),q) ≡ Apply(Apply(s,q),p), with p and q
//	          each producing the same response in both orders;
//	q overwrites p: Apply(Apply(s,p),q) ≡ Apply(s,q), with q producing
//	          the same response in both.
//
// The states slice should sample the reachable state space; the
// exhaustive quantifier of the definitions is approximated by sampling
// (property-based testing), which is sound for rejecting bad
// declarations and strong evidence for good ones.
func CheckAlgebra(s Spec, states []State, invs []Inv) []Violation {
	var out []Violation
	for _, st := range states {
		for _, p := range invs {
			for _, q := range invs {
				if s.Commutes(p, q) {
					if why := checkCommute(s, st, p, q); why != "" {
						out = append(out, Violation{"commute", st, p, q, why})
					}
				}
				if s.Overwrites(q, p) {
					if why := checkOverwrite(s, st, q, p); why != "" {
						out = append(out, Violation{"overwrite", st, p, q, why})
					}
				}
			}
		}
	}
	if ok, w := SatisfiesProperty1(s, invs); !ok {
		out = append(out, Violation{
			Kind: "property1", P: w[0], Q: w[1],
			Why: "pair neither commutes nor overwrites either way",
		})
	}
	// Validate Pure declarations: a pure op must leave every sampled
	// state unchanged.
	if p, ok := s.(Pure); ok {
		for _, inv := range invs {
			if !p.Pure(inv) {
				continue
			}
			for _, st := range states {
				next, _ := s.Apply(st, inv)
				if !s.Equal(st, next) {
					out = append(out, Violation{
						Kind: "pure", State: st, P: inv, Q: inv,
						Why: fmt.Sprintf("declared pure but changed state to %v", next),
					})
				}
			}
		}
	}
	return out
}

func checkCommute(s Spec, st State, p, q Inv) string {
	sp, rp := s.Apply(st, p)
	spq, rqAfterP := s.Apply(sp, q)
	sq, rq := s.Apply(st, q)
	sqp, rpAfterQ := s.Apply(sq, p)
	if !reflect.DeepEqual(rp, rpAfterQ) {
		return fmt.Sprintf("p's response differs: %v vs %v", rp, rpAfterQ)
	}
	if !reflect.DeepEqual(rq, rqAfterP) {
		return fmt.Sprintf("q's response differs: %v vs %v", rq, rqAfterP)
	}
	if !s.Equal(spq, sqp) {
		return fmt.Sprintf("states diverge: %v vs %v", spq, sqp)
	}
	return ""
}

// checkOverwrite verifies that q overwrites p at st.
func checkOverwrite(s Spec, st State, q, p Inv) string {
	sp, _ := s.Apply(st, p)
	spq, rqAfterP := s.Apply(sp, q)
	sq, rq := s.Apply(st, q)
	if !reflect.DeepEqual(rq, rqAfterP) {
		return fmt.Sprintf("q's response differs: %v vs %v", rq, rqAfterP)
	}
	if !s.Equal(spq, sq) {
		return fmt.Sprintf("H·p·q state %v differs from H·q state %v", spq, sq)
	}
	return ""
}

// Replay applies a sequence of invocations from the initial state and
// returns the final state with every response.
func Replay(s Spec, invs []Inv) (State, []any) {
	return ReplayFrom(s, s.Init(), invs)
}

// ReplayFrom applies a sequence of invocations starting from st and
// returns the final state with every response. Because operations are
// deterministic, replaying a linearization's suffix from a memoized
// checkpoint state is indistinguishable from replaying the whole
// history — which is what makes the universal construction's
// incremental replay caching sound.
func ReplayFrom(s Spec, st State, invs []Inv) (State, []any) {
	resps := make([]any, len(invs))
	for i, inv := range invs {
		st, resps[i] = s.Apply(st, inv)
	}
	return st, resps
}

// Advance returns the state after applying inv to st, for a replay
// that discards the response. For a batched spec it applies the inner
// invocations one by one, without building the response slice the
// batch's Apply would return.
func Advance(s Spec, st State, inv Inv) State {
	if b, ok := s.(batched); ok {
		if invs, ok := BatchOf(inv); ok {
			for _, in := range invs {
				st = Advance(b.base, st, in)
			}
			return st
		}
	}
	st, _ = s.Apply(st, inv)
	return st
}
