package lingraph

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// This file keeps Figure 3 as the paper states it, over edge lists, as
// the oracle for Build: every pair in the precedence-consistent order
// consults dom, and reachability is tested only against the edge the
// dominance verdict proposes. Build takes rank-ordered closures instead
// of edges and skips pairs reachability already relates before calling
// dom; the differential test pins that neither changes the
// reachability relation or the order.

// graph is a precedence graph as edge lists.
type graph struct {
	k   int
	out [][]int // direct precedence edges i -> j (i precedes j)
}

// edgesOf expands closures into one edge per ancestor.
func edgesOf(prec []Bits) *graph {
	g := &graph{k: len(prec), out: make([][]int, len(prec))}
	for j, a := range prec {
		a.Each(func(i int) { g.out[i] = append(g.out[i], j) })
	}
	return g
}

// refLin is L(G) as the edge-based construction keeps it.
type refLin struct {
	k     int
	out   [][]int // combined edge lists
	reach []Bits  // reach[i] = nodes reachable from i, including i
	prec  []Bits  // reachability over precedence edges only
}

func buildReference(g *graph, dom func(i, j int) bool) (*refLin, error) {
	order, err := topoOrder(g.k, g.out)
	if err != nil {
		return nil, err
	}
	l := &refLin{
		k:     g.k,
		out:   make([][]int, g.k),
		reach: make([]Bits, g.k),
		prec:  make([]Bits, g.k),
	}
	for i := 0; i < g.k; i++ {
		l.out[i] = append([]int(nil), g.out[i]...)
		l.reach[i] = NewBits(g.k)
		l.reach[i].Set(i)
	}
	// Seed reachability from the precedence DAG in reverse topological
	// order, then snapshot it as the precedence-only relation.
	for idx := g.k - 1; idx >= 0; idx-- {
		u := order[idx]
		for _, v := range g.out[u] {
			l.reach[u].Or(l.reach[v])
		}
	}
	for i := 0; i < g.k; i++ {
		l.prec[i] = append(Bits(nil), l.reach[i]...)
	}
	// The pairwise pass of Figure 3, in the precedence-consistent
	// order: for i < j, point the dominated one at the dominator unless
	// that closes a cycle.
	for a := 0; a < g.k; a++ {
		pi := order[a]
		for b := a + 1; b < g.k; b++ {
			pj := order[b]
			switch {
			case dom(pi, pj) && !l.reach[pi].Has(pj):
				l.addEdge(pj, pi)
			case dom(pj, pi) && !l.reach[pj].Has(pi):
				l.addEdge(pi, pj)
			}
		}
	}
	return l, nil
}

// addEdge inserts u→v and updates reachability: every node that
// reaches u now also reaches everything v reaches.
func (l *refLin) addEdge(u, v int) {
	l.out[u] = append(l.out[u], v)
	rv := l.reach[v]
	for w := 0; w < l.k; w++ {
		if w == u || l.reach[w].Has(u) {
			l.reach[w].Or(rv)
		}
	}
}

func (l *refLin) HasPath(u, v int) bool  { return u != v && l.reach[u].Has(v) }
func (l *refLin) Precedes(u, v int) bool { return u != v && l.prec[u].Has(v) }

// Order returns a deterministic topological sort of L(G): among ready
// nodes, the lowest index first.
func (l *refLin) Order() []int {
	order, err := topoOrder(l.k, l.out)
	if err != nil {
		panic("lingraph: linearization graph contains a cycle")
	}
	return order
}

// topoOrder returns a deterministic topological order of a DAG
// (lowest index first among ready nodes), or an error if the graph is
// cyclic.
func topoOrder(k int, out [][]int) ([]int, error) {
	indeg := make([]int, k)
	for _, vs := range out {
		for _, v := range vs {
			indeg[v]++
		}
	}
	var ready []int
	for i := 0; i < k; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	sort.Ints(ready)
	order := make([]int, 0, k)
	for len(ready) > 0 {
		u := ready[0]
		ready = ready[1:]
		order = append(order, u)
		var woke []int
		for _, v := range out[u] {
			indeg[v]--
			if indeg[v] == 0 {
				woke = append(woke, v)
			}
		}
		if len(woke) > 0 {
			ready = append(ready, woke...)
			sort.Ints(ready)
		}
	}
	if len(order) != k {
		return nil, fmt.Errorf("lingraph: precedence graph is cyclic")
	}
	return order, nil
}

// TestBuildMatchesReference compares Build with buildReference on
// random topologically numbered precedence graphs — interval orders,
// as real histories produce, and arbitrary DAGs — under three dominance
// relations: the real Definition 14 relation of the counter, a random
// strict order on classes, and an arbitrary random relation (possibly
// symmetric, which the construction must tolerate). Order, HasPath and
// Precedes must agree on every pair.
func TestBuildMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(30)
		var prec []Bits
		var dom func(i, j int) bool
		switch seed % 3 {
		case 0:
			prec, dom, _ = randomCase(rng, k)
		case 1, 2:
			if seed%2 == 0 {
				prec = intervalClosures(randomIntervals(rng, k, 40, 10))
			} else {
				prec = make([]Bits, k)
				for j := range prec {
					prec[j] = NewBits(k)
					for i := 0; i < j; i++ {
						if rng.Intn(4) == 0 {
							prec[j].Set(i)
							prec[j].Or(prec[i])
						}
					}
				}
			}
			if seed%3 == 1 {
				class := make([]int, k)
				for i := range class {
					class[i] = rng.Intn(5)
				}
				dom = func(i, j int) bool { return class[i] > class[j] }
			} else {
				rel := make([][]bool, k)
				for i := range rel {
					rel[i] = make([]bool, k)
					for j := range rel[i] {
						rel[i][j] = i != j && rng.Intn(3) == 0
					}
				}
				dom = func(i, j int) bool { return rel[i][j] }
			}
		}
		want, err := buildReference(edgesOf(prec), dom)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		got, err := Build(prec, dom)
		if err != nil {
			t.Fatalf("seed %d: Build: %v", seed, err)
		}
		if g, w := got.Order(), want.Order(); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d (k=%d): Order %v, reference %v", seed, k, g, w)
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if got.HasPath(i, j) != want.HasPath(i, j) {
					t.Fatalf("seed %d: HasPath(%d,%d) = %v, reference %v",
						seed, i, j, got.HasPath(i, j), want.HasPath(i, j))
				}
				if got.Precedes(i, j) != want.Precedes(i, j) {
					t.Fatalf("seed %d: Precedes(%d,%d) differs", seed, i, j)
				}
			}
		}
	}
}

// TestBuildSkipsRelatedPairs pins what the differential test cannot
// see: Build consults dom only for pairs reachability has not already
// related. On a precedence chain every pair is related, so dom is
// never called.
func TestBuildSkipsRelatedPairs(t *testing.T) {
	calls := 0
	if _, err := Build(chain(6), func(i, j int) bool { calls++; return true }); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("dom consulted %d times on a fully ordered chain, want 0", calls)
	}
}

// chain returns the closures of the precedence chain 0 → 1 → … → k-1.
func chain(k int) []Bits {
	prec := make([]Bits, k)
	for j := range prec {
		prec[j] = NewBits(k)
		for i := 0; i < j; i++ {
			prec[j].Set(i)
		}
	}
	return prec
}
