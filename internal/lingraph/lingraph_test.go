package lingraph

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/spec"
	"repro/internal/types"
)

// interval is a synthetic operation interval for generating precedence
// graphs the way real histories do (precedence = disjoint intervals).
// Interval orders are exactly what Section 5.3's lemmas assume (cf.
// Lemma 13).
type interval struct{ start, end int }

// randomCase generates k counter operations with random intervals and
// processes, returning the precedence closures and a dominance callback
// derived from the real Definition 14 relation.
func randomCase(rng *rand.Rand, k int) ([]Bits, func(i, j int) bool, []interval) {
	s := types.Counter{}
	invs := s.SampleInvocations()
	ops := make([]spec.Inv, k)
	procs := make([]int, k)
	for i := 0; i < k; i++ {
		ops[i] = invs[rng.Intn(len(invs))]
		procs[i] = rng.Intn(4)
	}
	ivs := randomIntervals(rng, k, 40, 10)
	dom := func(i, j int) bool {
		return spec.Dominates(s, ops[i], procs[i], ops[j], procs[j])
	}
	return intervalClosures(ivs), dom, ivs
}

// randomIntervals returns k random intervals sorted by start, so
// precedence (one interval ending before another starts) always runs
// from a lower index to a higher one: a topological numbering.
func randomIntervals(rng *rand.Rand, k, span, maxLen int) []interval {
	ivs := make([]interval, k)
	for i := range ivs {
		start := rng.Intn(span)
		ivs[i] = interval{start, start + 1 + rng.Intn(maxLen)}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].start < ivs[b].start })
	return ivs
}

// intervalClosures returns each interval's precedence closure: the
// intervals that end before it starts.
func intervalClosures(ivs []interval) []Bits {
	prec := make([]Bits, len(ivs))
	for j := range ivs {
		prec[j] = NewBits(len(ivs))
		for i := 0; i < j; i++ {
			if ivs[i].end < ivs[j].start {
				prec[j].Set(i)
			}
		}
	}
	return prec
}

// closures builds k closures from (ancestor, node) pairs.
func closures(k int, pairs ...[2]int) []Bits {
	prec := make([]Bits, k)
	for j := range prec {
		prec[j] = NewBits(k + 1)
	}
	for _, p := range pairs {
		prec[p[1]].Set(p[0])
	}
	return prec
}

func TestChainPrecedenceOrder(t *testing.T) {
	l, err := Build(chain(3), func(i, j int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	got := l.Order()
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Order = %v, want %v", got, want)
		}
	}
	if !l.Precedes(0, 2) {
		t.Error("transitive precedence missing")
	}
	if l.Concurrent(1, 2) {
		t.Error("chained nodes reported concurrent")
	}
}

// TestCyclicPrecedenceRejected: a cyclic precedence graph has no
// topological numbering, so one of its closures names a later node,
// which Build rejects.
func TestCyclicPrecedenceRejected(t *testing.T) {
	if _, err := Build(closures(2, [2]int{0, 1}, [2]int{1, 0}), func(i, j int) bool { return false }); err == nil {
		t.Fatal("cyclic precedence graph accepted")
	}
}

func TestDominanceEdgeAdded(t *testing.T) {
	// Two concurrent ops, 1 dominates 0: edge 0 -> 1 must appear, so
	// the dominated op linearizes first.
	l, err := Build(closures(2), func(i, j int) bool { return i == 1 && j == 0 })
	if err != nil {
		t.Fatal(err)
	}
	if !l.HasPath(0, 1) {
		t.Fatal("missing dominance edge")
	}
	got := l.Order()
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("Order = %v, want dominated first", got)
	}
}

func TestDominanceNeverOverridesPrecedence(t *testing.T) {
	// 0 precedes 1, but 0 dominates 1: the dominance edge 1 -> 0 would
	// create a cycle and must be skipped.
	l, err := Build(closures(2, [2]int{0, 1}), func(i, j int) bool { return i == 0 && j == 1 })
	if err != nil {
		t.Fatal(err)
	}
	got := l.Order()
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("Order = %v; precedence must win", got)
	}
}

// TestLemma16 on random cases: if p and q are concurrent and one
// dominates the other, L(G) relates them by a path.
func TestLemma16(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		k := 2 + rng.Intn(10)
		prec, dom, _ := randomCase(rng, k)
		l, err := Build(prec, dom)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i == j || !l.Concurrent(i, j) {
					continue
				}
				if (dom(i, j) || dom(j, i)) && l.Unrelated(i, j) {
					t.Fatalf("trial %d: concurrent dominating pair (%d,%d) unrelated in L(G)", trial, i, j)
				}
			}
		}
	}
}

// TestOrderIsTopological on random cases: the produced order respects
// every edge of L(G), and in particular all precedence edges.
func TestOrderIsTopological(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		k := 2 + rng.Intn(12)
		prec, dom, _ := randomCase(rng, k)
		l, err := Build(prec, dom)
		if err != nil {
			t.Fatal(err)
		}
		pos := make([]int, k)
		for idx, node := range l.Order() {
			pos[node] = idx
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i != j && l.Precedes(i, j) && pos[i] > pos[j] {
					t.Fatalf("trial %d: order violates precedence %d before %d", trial, i, j)
				}
				if i != j && l.HasPath(i, j) && pos[i] > pos[j] {
					t.Fatalf("trial %d: order violates L(G) path %d => %d", trial, i, j)
				}
			}
		}
	}
}

// TestLemma23Subgraph: removing an operation with no outgoing
// precedence edges yields a linearization graph that is a subgraph of
// the original.
func TestLemma23Subgraph(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		k := 3 + rng.Intn(8)
		prec, dom, _ := randomCase(rng, k)
		// Find a node with no outgoing precedence edges.
		p := -1
		for i := k - 1; i >= 0 && p == -1; i-- {
			p = i
			for j := range prec {
				if prec[j].Has(i) {
					p = -1
					break
				}
			}
		}
		if p == -1 {
			continue
		}
		lFull, err := Build(prec, dom)
		if err != nil {
			t.Fatal(err)
		}
		// Build G' = G - p with indices remapped.
		remap := make([]int, 0, k-1)
		for i := 0; i < k; i++ {
			if i != p {
				remap = append(remap, i)
			}
		}
		prec2 := make([]Bits, k-1)
		for j, old := range remap {
			prec2[j] = NewBits(k - 1)
			for i, oldI := range remap[:j] {
				if prec[old].Has(oldI) {
					prec2[j].Set(i)
				}
			}
		}
		dom2 := func(i, j int) bool { return dom(remap[i], remap[j]) }
		lSub, err := Build(prec2, dom2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k-1; i++ {
			for j := 0; j < k-1; j++ {
				if i != j && lSub.HasPath(i, j) && !lFull.HasPath(remap[i], remap[j]) {
					t.Fatalf("trial %d: L(G-p) has path %d=>%d missing from L(G)",
						trial, remap[i], remap[j])
				}
			}
		}
	}
}

// TestDeterminism: same inputs, same order.
func TestDeterminism(t *testing.T) {
	build := func() []int {
		rng := rand.New(rand.NewSource(77))
		g, dom, _ := randomCase(rng, 9)
		l, err := Build(g, dom)
		if err != nil {
			t.Fatal(err)
		}
		return l.Order()
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic order: %v vs %v", a, b)
		}
	}
}

// TestAcyclicAlways (Lemma 18): Order never panics on random cases,
// even with adversarially dense dominance.
func TestAcyclicAlways(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 80; trial++ {
		k := 2 + rng.Intn(14)
		prec, _, _ := randomCase(rng, k)
		// Random (possibly non-transitive) dominance to stress cycle
		// avoidance; Figure 3 must still produce a DAG.
		domMatrix := make([][]bool, k)
		for i := range domMatrix {
			domMatrix[i] = make([]bool, k)
			for j := range domMatrix[i] {
				domMatrix[i][j] = i != j && rng.Intn(3) == 0
			}
		}
		l, err := Build(prec, func(i, j int) bool { return domMatrix[i][j] })
		if err != nil {
			t.Fatal(err)
		}
		_ = l.Order() // panics on a cycle
	}
}

// TestBuildRejectsBadClosures: a closure may name only earlier nodes,
// so a node preceding itself, a later node or one out of range is
// rejected rather than silently linearized.
func TestBuildRejectsBadClosures(t *testing.T) {
	for _, prec := range [][]Bits{
		closures(2, [2]int{0, 0}),
		closures(2, [2]int{1, 0}),
		closures(2, [2]int{2, 1}),
	} {
		if _, err := Build(prec, func(i, j int) bool { return false }); err == nil {
			t.Errorf("closures %v accepted", prec)
		}
	}
}

func TestKAccessors(t *testing.T) {
	l, err := Build(closures(5), func(i, j int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if l.K() != 5 {
		t.Errorf("Lin K = %d", l.K())
	}
	// All nodes pairwise concurrent and unrelated.
	if !l.Concurrent(0, 4) || !l.Unrelated(0, 4) {
		t.Error("empty graph: nodes must be concurrent and unrelated")
	}
}
