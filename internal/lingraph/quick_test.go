package lingraph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickInvariants property-checks the lingraph invariants the
// Section 5.3 lemmas rely on, over random interval-order precedence
// graphs and random dominance relations:
//
//  1. L(G) is acyclic (Lemma 18) — Order() never panics;
//  2. precedence is preserved: G's reachability embeds in L(G);
//  3. concurrent pairs related by dominance are connected (Lemma 16);
//  4. Unrelated pairs are never dominance-related either way.
func TestQuickInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(12)
		// Interval order precedence, numbered by start.
		ivs := randomIntervals(rng, k, 30, 8)
		// Random dominance restricted to a strict order on classes, so
		// it resembles a real Definition 14 relation: class(i) <
		// class(j) means j dominates i.
		class := make([]int, k)
		for i := range class {
			class[i] = rng.Intn(4)
		}
		dom := func(i, j int) bool { return class[i] > class[j] }

		l, err := Build(intervalClosures(ivs), dom)
		if err != nil {
			return false
		}
		order := l.Order() // 1: panics on a cycle
		pos := make([]int, k)
		for idx, n := range order {
			pos[n] = idx
		}
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if i == j {
					continue
				}
				if ivs[i].end < ivs[j].start && !l.Precedes(i, j) {
					return false // 2: precedence lost
				}
				if l.Precedes(i, j) && pos[i] > pos[j] {
					return false // 2: order violates precedence
				}
				if l.Concurrent(i, j) && (dom(i, j) || dom(j, i)) && l.Unrelated(i, j) {
					return false // 3: Lemma 16
				}
				if l.Unrelated(i, j) && (dom(i, j) || dom(j, i)) {
					return false // 4: unrelated implies commuting pair
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickDominatedFirst: for a two-node concurrent graph, the
// dominated node always linearizes first — the construction's stated
// intent ("we would like dominated operations to be placed earlier").
func TestQuickDominatedFirst(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		winner := rng.Intn(2)
		l, err := Build(closures(2), func(i, j int) bool { return i == winner })
		if err != nil {
			return false
		}
		return l.Order()[0] == 1-winner
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
