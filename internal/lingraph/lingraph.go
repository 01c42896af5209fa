// Package lingraph implements the linearization-graph construction of
// Section 5.3 (Figure 3): given a precedence graph — a DAG whose edge
// p→q records that operation p preceded operation q in real time — and
// the dominance relation of Definition 14, it adds a maximal set of
// dominance edges (directed from dominated to dominator, so dominated
// operations linearize earlier) that does not create a cycle, visiting
// pairs in a precedence-consistent order exactly as the paper's
// pseudocode does. A topological sort of the result is a linearization
// (Definition 19); Lemma 20 guarantees all such linearizations are
// equivalent.
//
// Nodes are dense indices 0..K-1; the caller keeps its own mapping to
// operations and supplies the dominance relation as a callback, which
// keeps this package independent of any particular specification.
package lingraph

import (
	"fmt"
	"math/bits"
	"sort"
)

// Graph is a precedence graph under construction.
type Graph struct {
	k   int
	out [][]int // direct precedence edges i -> j (i precedes j)
}

// NewGraph returns an empty precedence graph on k nodes.
func NewGraph(k int) *Graph {
	return &Graph{k: k, out: make([][]int, k)}
}

// K returns the node count.
func (g *Graph) K() int { return g.k }

// AddPrecedence records that node i precedes node j.
func (g *Graph) AddPrecedence(i, j int) {
	g.check(i)
	g.check(j)
	if i == j {
		panic("lingraph: self-precedence")
	}
	g.out[i] = append(g.out[i], j)
}

func (g *Graph) check(i int) {
	if i < 0 || i >= g.k {
		panic(fmt.Sprintf("lingraph: node %d out of range [0,%d)", i, g.k))
	}
}

// bitset is a fixed-size bit vector over node indices.
type bitset []uint64

func newBitset(k int) bitset { return make(bitset, (k+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Lin is a linearization graph L(G): the precedence graph plus the
// maximal acyclic set of dominance edges.
type Lin struct {
	k     int
	out   [][]int  // combined edge lists
	reach []bitset // reach[i] = nodes reachable from i, including i
	prec  []bitset // reachability over precedence edges only
}

// Build runs the Figure 3 construction. dom(i, j) must report whether
// node i's operation dominates node j's (Definition 14); it is
// consulted only for pairs not related by precedence. Build returns an
// error if the precedence graph is cyclic.
func Build(g *Graph, dom func(i, j int) bool) (*Lin, error) {
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
	// Seed reachability from the precedence DAG in reverse topological
	// order, then snapshot it as the precedence-only relation.
	for idx := g.k - 1; idx >= 0; idx-- {
		u := order[idx]
		for _, v := range g.out[u] {
			l.reach[u].or(l.reach[v])
		}
	}
	for i := 0; i < g.k; i++ {
		l.prec[i] = append(bitset(nil), l.reach[i]...)
	}
	// The pairwise pass of Figure 3, in the precedence-consistent
	// order: for i < j, try to point the dominated one at the
	// dominator unless that closes a cycle. A pair reachability already
	// relates is skipped before dom is consulted: the dominator edge
	// would close a cycle, and the reverse one would repeat a path, so
	// neither changes reach or the topological order.
	for a := 0; a < g.k; a++ {
		pi := order[a]
		for b := a + 1; b < g.k; b++ {
			pj := order[b]
			switch {
			case l.reach[pi].has(pj) || l.reach[pj].has(pi):
			case dom(pi, pj):
				l.addEdge(pj, pi)
			case dom(pj, pi):
				l.addEdge(pi, pj)
			}
		}
	}
	return l, nil
}

// addEdge inserts u→v and updates reachability: every node that
// reaches u now also reaches everything v reaches.
func (l *Lin) addEdge(u, v int) {
	l.out[u] = append(l.out[u], v)
	rv := l.reach[v]
	for w := 0; w < l.k; w++ {
		if w == u || l.reach[w].has(u) {
			l.reach[w].or(rv)
		}
	}
}

// K returns the node count.
func (l *Lin) K() int { return l.k }

// HasPath reports whether v is reachable from u in L(G) (u ⇒ v).
func (l *Lin) HasPath(u, v int) bool { return u != v && l.reach[u].has(v) }

// Precedes reports the transitive real-time precedence of the
// underlying graph.
func (l *Lin) Precedes(u, v int) bool { return u != v && l.prec[u].has(v) }

// Concurrent reports that neither node precedes the other.
func (l *Lin) Concurrent(u, v int) bool {
	return u != v && !l.Precedes(u, v) && !l.Precedes(v, u)
}

// Unrelated reports that L(G) has no path between u and v in either
// direction; by Lemma 17 such operations commute.
func (l *Lin) Unrelated(u, v int) bool {
	return u != v && !l.HasPath(u, v) && !l.HasPath(v, u)
}

// Order returns a deterministic topological sort of L(G): among ready
// nodes, the lowest index first. This is a linearization in the sense
// of Definition 19.
func (l *Lin) Order() []int {
	indeg := make([]int, l.k)
	for _, vs := range l.out {
		for _, v := range vs {
			indeg[v]++
		}
	}
	var ready []int
	for i := 0; i < l.k; i++ {
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	sort.Ints(ready)
	out := make([]int, 0, l.k)
	for len(ready) > 0 {
		u := ready[0]
		ready = ready[1:]
		out = append(out, u)
		var woke []int
		for _, v := range l.out[u] {
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
	if len(out) != l.k {
		// Lemma 18 says this cannot happen; a cycle here is a bug in
		// the construction itself.
		panic("lingraph: linearization graph contains a cycle")
	}
	return out
}

// topoOrder returns a deterministic topological order of the
// precedence DAG (lowest index first among ready nodes), or an error
// if the graph is cyclic.
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
