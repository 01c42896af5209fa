package types

import (
	"math/rand"
	"testing"

	"repro/internal/lattice"
	"repro/internal/spec"
)

// TestDeclaredAlgebraHolds validates every type's declared
// commute/overwrite relations against its executable specification on
// its sample states (Definitions 10/11), and confirms Property 1 for
// the constructible types.
func TestDeclaredAlgebraHolds(t *testing.T) {
	for _, s := range Property1Types() {
		t.Run(s.Name(), func(t *testing.T) {
			for _, v := range spec.CheckAlgebra(s, s.SampleStates(), s.SampleInvocations()) {
				t.Errorf("%s", v)
			}
		})
	}
}

// TestAlgebraOnRandomStates extends the check to randomly generated
// reachable states: replay random invocation sequences and re-check
// the algebra at each resulting state.
func TestAlgebraOnRandomStates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range Property1Types() {
		t.Run(s.Name(), func(t *testing.T) {
			invs := s.SampleInvocations()
			var states []spec.State
			for trial := 0; trial < 20; trial++ {
				seq := make([]spec.Inv, rng.Intn(6))
				for i := range seq {
					seq[i] = invs[rng.Intn(len(invs))]
				}
				st, _ := spec.Replay(s, seq)
				states = append(states, st)
			}
			for _, v := range spec.CheckAlgebra(s, states, invs) {
				t.Errorf("%s", v)
			}
		})
	}
}

// TestQueueFailsProperty1: the queue is the negative witness — two
// dequeues neither commute nor overwrite each other.
func TestQueueFailsProperty1(t *testing.T) {
	q := Queue{}
	ok, w := spec.SatisfiesProperty1(q, q.SampleInvocations())
	if ok {
		t.Fatal("queue unexpectedly satisfies Property 1")
	}
	_ = w
	// The declared (empty) relations must still be self-consistent.
	for _, v := range spec.CheckAlgebra(q, q.SampleStates(), q.SampleInvocations()) {
		if v.Kind != "property1" {
			t.Errorf("queue declaration inconsistent: %s", v)
		}
	}
}

// TestQueueDeqsReallyConflict verifies the semantic content of the
// failure: two deqs on a non-empty queue produce order-dependent
// responses.
func TestQueueDeqsReallyConflict(t *testing.T) {
	q := Queue{}
	st, _ := spec.Replay(q, []spec.Inv{Enq("a"), Enq("b")})
	s1, r1 := q.Apply(st, Deq())
	_, r2 := q.Apply(s1, Deq())
	if r1 == r2 {
		t.Fatal("two deqs returned the same element")
	}
	if r1 != "a" || r2 != "b" {
		t.Fatalf("FIFO order broken: %v, %v", r1, r2)
	}
}

// lyingCounter claims inc commutes with reset — CheckAlgebra must
// catch the lie. This is the CI tripwire DESIGN.md promises.
type lyingCounter struct{ Counter }

func (lyingCounter) Commutes(p, q spec.Inv) bool {
	if (p.Op == OpInc && q.Op == OpReset) || (p.Op == OpReset && q.Op == OpInc) {
		return true
	}
	return Counter{}.Commutes(p, q)
}

func TestCheckAlgebraCatchesFalseCommute(t *testing.T) {
	s := lyingCounter{}
	vs := spec.CheckAlgebra(s, Counter{}.SampleStates(), Counter{}.SampleInvocations())
	found := false
	for _, v := range vs {
		if v.Kind == "commute" {
			found = true
		}
	}
	if !found {
		t.Fatal("CheckAlgebra missed a false commutativity claim")
	}
}

// lyingOverwriter claims inc overwrites dec.
type lyingOverwriter struct{ Counter }

func (lyingOverwriter) Overwrites(q, p spec.Inv) bool {
	if q.Op == OpInc && p.Op == OpDec {
		return true
	}
	return Counter{}.Overwrites(q, p)
}

func TestCheckAlgebraCatchesFalseOverwrite(t *testing.T) {
	s := lyingOverwriter{}
	vs := spec.CheckAlgebra(s, Counter{}.SampleStates(), Counter{}.SampleInvocations())
	found := false
	for _, v := range vs {
		if v.Kind == "overwrite" {
			found = true
		}
	}
	if !found {
		t.Fatal("CheckAlgebra missed a false overwrite claim")
	}
}

// TestOverwritesTransitive checks Lemma 12 on the declared relations:
// if r overwrites q and q overwrites p then r overwrites p.
func TestOverwritesTransitive(t *testing.T) {
	for _, s := range AllTypes() {
		invs := s.SampleInvocations()
		for _, p := range invs {
			for _, q := range invs {
				for _, r := range invs {
					if s.Overwrites(r, q) && s.Overwrites(q, p) && !s.Overwrites(r, p) {
						t.Errorf("%s: overwrites not transitive: %v over %v over %v",
							s.Name(), r, q, p)
					}
				}
			}
		}
	}
}

// TestDominanceStrictPartialOrder checks Lemma 15: dominance is
// transitive and antisymmetric over sampled (invocation, process)
// pairs.
func TestDominanceStrictPartialOrder(t *testing.T) {
	for _, s := range AllTypes() {
		type node struct {
			inv  spec.Inv
			proc int
		}
		var nodes []node
		for i, inv := range s.SampleInvocations() {
			nodes = append(nodes, node{inv, i % 3}, node{inv, (i + 1) % 3})
		}
		dom := func(a, b node) bool {
			return spec.Dominates(s, a.inv, a.proc, b.inv, b.proc)
		}
		for _, a := range nodes {
			if dom(a, a) {
				t.Errorf("%s: %v@%d dominates itself", s.Name(), a.inv, a.proc)
			}
			for _, b := range nodes {
				if dom(a, b) && dom(b, a) {
					t.Errorf("%s: mutual dominance between %v@%d and %v@%d",
						s.Name(), a.inv, a.proc, b.inv, b.proc)
				}
				for _, c := range nodes {
					if dom(a, b) && dom(b, c) && !dom(a, c) {
						t.Errorf("%s: dominance not transitive", s.Name())
					}
				}
			}
		}
	}
}

// TestPropertyOneHoldsForConstructibleTypes is the headline E10 check.
func TestPropertyOneHoldsForConstructibleTypes(t *testing.T) {
	for _, s := range Property1Types() {
		if ok, w := spec.SatisfiesProperty1(s, s.SampleInvocations()); !ok {
			t.Errorf("%s: Property 1 fails on %v / %v", s.Name(), w[0], w[1])
		}
	}
}

// TestReplayAndResponses exercises each spec's Apply on a short
// scripted history with known answers.
func TestReplayAndResponses(t *testing.T) {
	t.Run("counter", func(t *testing.T) {
		_, rs := spec.Replay(Counter{}, []spec.Inv{Inc(5), Dec(2), Read(), Reset(10), Read()})
		if rs[2] != int64(3) || rs[4] != int64(10) {
			t.Errorf("responses = %v", rs)
		}
	})
	t.Run("gset", func(t *testing.T) {
		_, rs := spec.Replay(GSet{}, []spec.Inv{Add("b"), Add("a"), Members(), Clear(), Members()})
		m := rs[2].([]string)
		if len(m) != 2 || m[0] != "a" || m[1] != "b" {
			t.Errorf("members = %v", m)
		}
		if len(rs[4].([]string)) != 0 {
			t.Errorf("members after clear = %v", rs[4])
		}
	})
	t.Run("maxreg", func(t *testing.T) {
		_, rs := spec.Replay(MaxReg{}, []spec.Inv{WriteMax(5), WriteMax(3), ReadMaxInv()})
		if rs[2] != int64(5) {
			t.Errorf("readmax = %v", rs[2])
		}
	})
	t.Run("clock", func(t *testing.T) {
		_, rs := spec.Replay(Clock{}, []spec.Inv{
			Merge(lattice.IntMap{"a": 1}),
			Merge(lattice.IntMap{"a": 3, "b": 1}),
			ReadClock(),
		})
		m := rs[2].(lattice.IntMap)
		if m["a"] != 3 || m["b"] != 1 {
			t.Errorf("clock = %v", m)
		}
	})
	t.Run("queue", func(t *testing.T) {
		_, rs := spec.Replay(Queue{}, []spec.Inv{Deq(), Enq("x"), Deq(), Deq()})
		if rs[0] != "" || rs[2] != "x" || rs[3] != "" {
			t.Errorf("responses = %v", rs)
		}
	})
}

// TestStateKeysDistinguish: Key must separate distinct states and
// agree on equal ones (it is the memoization key for lincheck).
func TestStateKeysDistinguish(t *testing.T) {
	for _, s := range AllTypes() {
		states := s.SampleStates()
		for i, a := range states {
			for j, b := range states {
				eq := s.Equal(a, b)
				keq := s.Key(a) == s.Key(b)
				if eq != keq {
					t.Errorf("%s: Equal(%d,%d)=%v but key equality %v", s.Name(), i, j, eq, keq)
				}
			}
		}
	}
}

// TestStateKeysInjective: element names that contain a separator must
// not forge another state's key. Each of the first six pairs collided
// under the joined encodings the keys used before they quoted their
// elements; the last three collide if a map state's key drops the
// length prefix of its keys or of its string values.
func TestStateKeysInjective(t *testing.T) {
	for _, c := range []struct {
		s    spec.Spec
		a, b spec.State
	}{
		{GSet{}, setState{{k: "a,b"}}, setState{{k: "a"}, {k: "b"}}},
		{KCounter{}, kcState{{"a=1;b", 2}}, kcState{{"a", 1}, {"b", 2}}},
		{Directory{}, dirState{{"a", "1;b=2"}}, dirState{{"a", "1"}, {"b", "2"}}},
		{Clock{}, lattice.IntMap{"a=1;b": 2}, lattice.IntMap{"a": 1, "b": 2}},
		{Queue{}, queueState{"a,b"}, queueState{"a", "b"}},
		{spec.Compose(Register{}, Register{}), regPair("x||", "y"), regPair("x", "||y")},
		{GSet{}, setState{{k: "ab"}}, setState{{k: "a"}, {k: "b"}}},
		{KCounter{}, kcState{{"a\x02b", 2}}, kcState{{"a", 1}, {"b", 2}}},
		{Directory{}, dirState{{"a", "x\x01b"}}, dirState{{"a", "x"}, {"b", ""}}},
	} {
		if c.s.Equal(c.a, c.b) {
			t.Fatalf("%s: test states are equal", c.s.Name())
		}
		if ka, kb := c.s.Key(c.a), c.s.Key(c.b); ka == kb {
			t.Errorf("%s: distinct states share the key %q", c.s.Name(), ka)
		}
	}
}

// regPair returns the Compose(Register, Register) state holding a and b.
func regPair(a, b string) spec.State {
	st, _ := spec.Replay(spec.Compose(Register{}, Register{}),
		[]spec.Inv{spec.TagA(Write(a)), spec.TagB(Write(b))})
	return st
}
