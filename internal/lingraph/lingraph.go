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
// Nodes are dense indices 0..K-1 numbered in a topological order of
// the precedence relation (the rank order), and the precedence graph
// is given as each node's ancestor closure, so the pairwise pass visits
// pairs in rank order and needs no sort of its own. The caller keeps
// its own mapping to operations and supplies the dominance relation as
// a callback, which keeps this package independent of any particular
// specification.
package lingraph

import (
	"fmt"
	"math/bits"
)

// Bits is a bit set over node indices. Reads past its end see zeros.
type Bits []uint64

// NewBits returns an empty set with room for indices below k.
func NewBits(k int) Bits { return make(Bits, (k+63)/64) }

// Set adds i, which must lie below the set's capacity.
func (b Bits) Set(i int) { b[i/64] |= 1 << (i % 64) }

// Has reports whether i is in the set.
func (b Bits) Has(i int) bool { w := i / 64; return w < len(b) && b[w]&(1<<(i%64)) != 0 }

// Or folds o, which must be no longer than b, into b.
func (b Bits) Or(o Bits) {
	for i, w := range o {
		b[i] |= w
	}
}

// Each calls f for every member, ascending.
func (b Bits) Each(f func(i int)) {
	for wi, w := range b {
		for ; w != 0; w &= w - 1 {
			f(wi*64 + bits.TrailingZeros64(w))
		}
	}
}

// Missing calls f for every index below n that is not a member,
// ascending.
func (b Bits) Missing(n int, f func(i int)) {
	for wi := 0; wi*64 < n; wi++ {
		w := ^uint64(0)
		if wi < len(b) {
			w = ^b[wi]
		}
		if r := n - wi*64; r < 64 {
			w &= 1<<r - 1
		}
		for ; w != 0; w &= w - 1 {
			f(wi*64 + bits.TrailingZeros64(w))
		}
	}
}

// above reports whether the set has a member at or above i.
func (b Bits) above(i int) bool {
	for wi := i / 64; wi < len(b); wi++ {
		w := b[wi]
		if wi == i/64 {
			w >>= i % 64
		}
		if w != 0 {
			return true
		}
	}
	return false
}

// Lin is a linearization graph L(G): the precedence graph plus the
// maximal acyclic set of dominance edges, kept as ancestor closures.
type Lin struct {
	k    int
	anc  []Bits // anc[v] = nodes with a path to v in L(G)
	prec []Bits // precedence-only closures, as given to Build
}

// Build runs the Figure 3 construction over len(prec) nodes. prec[j]
// is node j's precedence-ancestor closure: every node that precedes j,
// directly or transitively. It may name only nodes below j, which is
// what makes the numbering a topological order; Build returns an error
// for a closure naming j itself, a later node or one out of range (a
// cyclic precedence graph has no such numbering). dom(i, j) must report
// whether node i's operation dominates node j's (Definition 14); it is
// consulted only for pairs reachability has not already related. Build
// keeps prec, which the caller must not modify afterwards.
func Build(prec []Bits, dom func(i, j int) bool) (*Lin, error) {
	k := len(prec)
	l := &Lin{k: k, anc: make([]Bits, k), prec: prec}
	w := (k + 63) / 64
	slab := make(Bits, k*w) // every closure, in one allocation
	for j, a := range prec {
		if a.above(j) {
			return nil, fmt.Errorf("lingraph: closure of node %d names node %d or later", j, j)
		}
		l.anc[j] = slab[j*w : (j+1)*w : (j+1)*w]
		copy(l.anc[j], a)
	}
	// The pairwise pass of Figure 3, in rank order: for i < j, try to
	// point the dominated one at the dominator unless that closes a
	// cycle. A pair reachability already relates is skipped before dom
	// is consulted: the dominator edge would close a cycle, and the
	// reverse one would repeat a path, so neither changes reachability
	// or the topological order.
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			switch {
			case l.anc[j].Has(i) || l.anc[i].Has(j):
			case dom(i, j):
				l.addEdge(j, i)
			case dom(j, i):
				l.addEdge(i, j)
			}
		}
	}
	return l, nil
}

// addEdge inserts u→v and updates reachability: v and everything v
// reaches are now reached by u and everything that reaches u.
func (l *Lin) addEdge(u, v int) {
	au := l.anc[u]
	for w := 0; w < l.k; w++ {
		if w == v || l.anc[w].Has(v) {
			l.anc[w].Or(au)
			l.anc[w].Set(u)
		}
	}
}

// K returns the node count.
func (l *Lin) K() int { return l.k }

// HasPath reports whether v is reachable from u in L(G) (u ⇒ v).
func (l *Lin) HasPath(u, v int) bool { return u != v && l.anc[v].Has(u) }

// Precedes reports the transitive real-time precedence of the
// underlying graph.
func (l *Lin) Precedes(u, v int) bool { return u != v && l.prec[v].Has(u) }

// Concurrent reports that neither node precedes the other.
func (l *Lin) Concurrent(u, v int) bool {
	return u != v && !l.Precedes(u, v) && !l.Precedes(v, u)
}

// Unrelated reports that L(G) has no path between u and v in either
// direction; by Lemma 17 such operations commute.
func (l *Lin) Unrelated(u, v int) bool {
	return u != v && !l.HasPath(u, v) && !l.HasPath(v, u)
}

// InDegree returns the number of nodes with a path to v in L(G): v's
// in-degree in the transitive closure, the count Kahn's rule over the
// closures waits on before v is ready.
func (l *Lin) InDegree(v int) int {
	n := 0
	for _, w := range l.anc[v] {
		n += bits.OnesCount64(w)
	}
	return n
}

// Order returns a deterministic topological sort of L(G): among ready
// nodes, the lowest index first (Kahn's rule over the closures, where a
// node is ready once every node reaching it is placed). This is a
// linearization in the sense of Definition 19.
func (l *Lin) Order() []int {
	left := make([]int, l.k) // unplaced nodes reaching v; -1 once v is placed
	for v := range left {
		left[v] = l.InDegree(v)
	}
	out := make([]int, 0, l.k)
	for len(out) < l.k {
		u := 0
		for u < l.k && left[u] != 0 {
			u++
		}
		if u == l.k {
			// Lemma 18 says this cannot happen; a cycle here is a bug in
			// the construction itself.
			panic("lingraph: linearization graph contains a cycle")
		}
		left[u] = -1
		out = append(out, u)
		for v := range l.anc {
			if l.anc[v].Has(u) {
				left[v]--
			}
		}
	}
	return out
}
