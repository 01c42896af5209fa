package lingraph

import (
	"math/rand"
	"reflect"
	"testing"
)

// buildReference is Build as Figure 3 states it: every pair in the
// precedence-consistent order consults dom, and reachability is tested
// only against the edge the dominance verdict proposes. Build skips
// pairs that reachability already relates before calling dom; this
// oracle pins that the skip changes neither the reachability relation
// nor the order.
func buildReference(g *Graph, dom func(i, j int) bool) (*Lin, error) {
	order, err := topoOrder(g.k, g.out)
	if err != nil {
		return nil, err
	}
	l := &Lin{
		k:     g.k,
		out:   make([][]int, g.k),
		reach: make([]bitset, g.k),
		prec:  make([]bitset, g.k),
	}
	for i := 0; i < g.k; i++ {
		l.out[i] = append([]int(nil), g.out[i]...)
		l.reach[i] = newBitset(g.k)
		l.reach[i].set(i)
	}
	for idx := g.k - 1; idx >= 0; idx-- {
		u := order[idx]
		for _, v := range g.out[u] {
			l.reach[u].or(l.reach[v])
		}
	}
	for i := 0; i < g.k; i++ {
		l.prec[i] = append(bitset(nil), l.reach[i]...)
	}
	for a := 0; a < g.k; a++ {
		pi := order[a]
		for b := a + 1; b < g.k; b++ {
			pj := order[b]
			switch {
			case dom(pi, pj) && !l.reach[pi].has(pj):
				l.addEdge(pj, pi)
			case dom(pj, pi) && !l.reach[pj].has(pi):
				l.addEdge(pi, pj)
			}
		}
	}
	return l, nil
}

// TestBuildMatchesReference compares Build with buildReference on
// random interval-order precedence graphs under three dominance
// relations: the real Definition 14 relation of the counter, a random
// strict order on classes, and an arbitrary random relation (possibly
// symmetric, which the construction must tolerate). Order, HasPath and
// Precedes must agree on every pair.
func TestBuildMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(30)
		var g *Graph
		var dom func(i, j int) bool
		switch seed % 3 {
		case 0:
			g, dom, _ = randomCase(rng, k)
		case 1, 2:
			g = NewGraph(k)
			starts, ends := make([]int, k), make([]int, k)
			for i := 0; i < k; i++ {
				starts[i] = rng.Intn(40)
				ends[i] = starts[i] + 1 + rng.Intn(10)
			}
			for i := 0; i < k; i++ {
				for j := 0; j < k; j++ {
					if ends[i] < starts[j] {
						g.AddPrecedence(i, j)
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
		got, err := Build(g, dom)
		if err != nil {
			t.Fatalf("seed %d: Build: %v", seed, err)
		}
		want, err := buildReference(g, dom)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
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
	const k = 6
	g := NewGraph(k)
	for i := 0; i+1 < k; i++ {
		g.AddPrecedence(i, i+1)
	}
	calls := 0
	if _, err := Build(g, func(i, j int) bool { calls++; return true }); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("dom consulted %d times on a fully ordered chain, want 0", calls)
	}
}
