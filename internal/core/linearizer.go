package core

import (
	"cmp"
	"errors"
	"slices"
	"sync/atomic"

	"repro/internal/lingraph"
	"repro/internal/spec"
)

// Linearizer is the incremental linearization engine behind Respond:
// it turns a monotonically growing sequence of snapshot views into
// linearizations and responses, amortizing the local work per call to
// the number of entries that are NEW since the previous call (Δ)
// instead of the full history length (m).
//
// The paper's cost model (Sections 5.4 and 6.2) counts only shared
// register accesses — local computation is free — so caching local
// state between operations is semantically invisible: the engine
// performs no shared accesses at all, and a process's successive scan
// views grow monotonically under the lattice order, so everything
// derived from an earlier view remains valid for every later one.
//
// Four caches cooperate:
//
//  1. the entry graph, extended in place: entries already indexed are
//     never revisited, and discovery is iterative (no recursion), with
//     the entries on its stack held in the index under id −1;
//  2. ancestor closures as dense bitsets keyed by a stable node id,
//     computed by OR-ing the parents' closures;
//  3. the linearization order, into which the new entries are merged
//     by running Figure 3 over them alone (see merge), with a fall-back
//     to a full rebuild when an old entry outside a new entry's
//     ancestor closure dominates it. A rebuild is the same merge into
//     an emptied order, so every order comes from one Figure 3 + Kahn
//     path; fallbacks are counted and surfaced as obs.EvLinRebuild;
//  4. sequential-replay checkpoints: the spec state at the frontier of
//     the previous linearization and at positions at most ckptSpacing
//     apart along it, each validated via spec.Key before reuse, so
//     Respond replays only the linearization's new suffix when the new
//     entries land at its end, and otherwise the order from the first
//     position the merge changed plus fewer than ckptSpacing entries
//     before it. The folded base is validated the same way whenever a
//     replay starts from it.
//
// A Linearizer is owned by one process (one goroutine at a time); the
// *Entry values it indexes are immutable and shared freely.
type Linearizer struct {
	s spec.Spec

	// nodes[id] is the entry with stable node id `id`; ids are assigned
	// in discovery order, which is ancestor-closed (an entry's ancestors
	// are assigned before it), so closures can be built by OR-ing
	// parents.
	nodes []node
	index map[*Entry]int32 // entry -> stable node id, −1 while extend walks it

	// live mirrors len(nodes) for Retained, which observers on other
	// goroutines (telemetry gauges, samplers) call while the owning
	// process extends and truncates the index.
	live atomic.Int64

	// order is the current linearization of all indexed entries and ord
	// the same as stable ids; state is the spec state after replaying
	// order FROM base, and stateKey its spec.Key at memoization time
	// (checkpoint validation). base is the folded state of every
	// truncated history prefix (spec.Init() until the first
	// truncation), and baseKey its spec.Key when it was set: replay
	// starts from base or from a state replayed from it, never from
	// Init, so folded entries stay part of the object's history after
	// their *Entry values are freed.
	order    []*Entry
	ord      []int32
	state    spec.State
	stateKey string
	base     spec.State
	baseKey  string

	// ckpts are replay states inside the order, in position order, no
	// more than ckptSpacing apart (from 0 to the first, and from the
	// last to the frontier): an out-of-order merge restores the last one
	// at or before the first position it changes instead of replaying
	// from base.
	ckpts []checkpoint

	// byProc[q] counts the q-entries this engine has EVER indexed —
	// monotone across truncations (Truncate never decrements it).
	// Because an engine's views grow monotonically and closures are
	// ancestor-closed, the indexed q-entries always form a prefix of
	// q's publication chain, so these counts are exactly the truncation
	// protocol's fold-readiness watermark (see truncate.go).
	byProc []int

	// stack is extend's walk, kept between calls for its array. A
	// popped frame is cleared, so the array pins no entry a truncation
	// frees.
	stack []walkFrame

	// stats, exposed via Stats.
	calls, extensions, rebuilds, checkpointMisses uint64
	linearized, replayed, rewritten, keyed        uint64
	truncations, truncated, folded                uint64

	// incremental disabled forces the full-rebuild path on every call
	// (the ablation arm of the long-history benchmarks).
	incremental bool
}

// node is an indexed entry and what the engine derives from it.
type node struct {
	e   *Entry
	anc lingraph.Bits // precedence ancestors (stable ids), excluding the node
	// seq is the rank stamp: e.Seq, raised above every ancestor's seq
	// when a hand-built history breaks the Lamport rule that nextSeq
	// keeps, so the (seq, Proc) rank order is always topological.
	seq uint64
	pos int32 // position in order
}

// ckptSpacing is the distance along the order between replay
// checkpoints: it bounds the extra Applies an out-of-order merge
// replays before the first position it changes, at the price of one
// retained spec state (and one spec.Key) per ckptSpacing entries.
const ckptSpacing = 32

// checkpoint is the state after replaying order[:pos] from base, and
// its spec.Key when recorded.
type checkpoint struct {
	pos int
	st  spec.State
	key string
}

// NewLinearizer returns an empty engine for s. A fresh engine used for
// a single Respond call behaves exactly like the uncached reference
// implementation.
func NewLinearizer(s spec.Spec) *Linearizer {
	st := s.Init()
	l := &Linearizer{
		s:           s,
		index:       map[*Entry]int32{},
		state:       st,
		base:        st,
		incremental: true,
	}
	l.baseKey = l.key(st)
	l.stateKey = l.baseKey
	return l
}

// SetIncremental toggles the incremental fast path. With incremental
// off, every call takes the full-rebuild path — the reference cost —
// which is what the cached-vs-rebuild ablation benchmarks measure.
func (l *Linearizer) SetIncremental(on bool) { l.incremental = on }

// LinStats are the engine's call counters.
type LinStats struct {
	// Calls counts Respond calls.
	Calls uint64
	// Extensions counts calls served by the incremental fast path.
	Extensions uint64
	// Rebuilds counts calls that fell back to a full rebuild.
	Rebuilds uint64
	// CheckpointMisses counts replay checkpoints rejected by spec.Key
	// validation (a spec mutating a supposedly immutable state).
	CheckpointMisses uint64
	// Linearized counts entries handed to Figure 3, Replayed the
	// invocations applied to bring the replay state to the order's
	// frontier, Rewritten the order positions merges and rebuilds
	// wrote, and Keyed the spec.Key calls that validate, record and
	// checkpoint replay states and the base: the engine's local work,
	// in units that do not depend on the host.
	Linearized uint64
	Replayed   uint64
	Rewritten  uint64
	Keyed      uint64
	// Truncations counts successful Truncate folds, Truncated the
	// total entries those folds freed from this engine's index, and
	// Folded the invocations the folds applied to reach their new base.
	Truncations uint64
	Truncated   uint64
	Folded      uint64
}

// Stats returns the engine's counters.
func (l *Linearizer) Stats() LinStats {
	return LinStats{
		Calls:            l.calls,
		Extensions:       l.extensions,
		Rebuilds:         l.rebuilds,
		CheckpointMisses: l.checkpointMisses,
		Linearized:       l.linearized,
		Replayed:         l.replayed,
		Rewritten:        l.rewritten,
		Keyed:            l.keyed,
		Truncations:      l.truncations,
		Truncated:        l.truncated,
		Folded:           l.folded,
	}
}

// Retained returns the number of entries currently indexed — the
// engine's live contribution to the entry graph's footprint. Unlike
// the engine's other methods it is safe from any goroutine.
func (l *Linearizer) Retained() int { return int(l.live.Load()) }

// IndexedByProc returns the number of process-q entries this engine
// has ever indexed. The count is monotone: truncation does not lower
// it.
func (l *Linearizer) IndexedByProc(q int) int {
	if q < 0 || q >= len(l.byProc) {
		return 0
	}
	return l.byProc[q]
}

// Respond computes the response to inv after the linearization of
// view, replaying the sequential specification — the heart of Figure
// 4's Step 1. It also returns the linearized history for diagnostics;
// the returned slice is owned by the engine and valid until the next
// call. The view must be from the same process's latest scan: views
// must grow monotonically across calls.
func (l *Linearizer) Respond(view []*Entry, inv spec.Inv) (any, []*Entry, error) {
	l.calls++
	if err := l.Refresh(view); err != nil {
		return nil, nil, err
	}
	_, resp := l.s.Apply(l.state, inv)
	return resp, l.order, nil
}

// Refresh folds view into the cached linearization without responding
// to an invocation — the Respond body minus the final Apply. The
// truncation protocol uses it to let an idle process catch up on the
// entry graph (one extra scan's worth of indexing) so a pending fold
// can complete without waiting for the process's next operation.
func (l *Linearizer) Refresh(view []*Entry) error {
	oldN := len(l.nodes)
	l.extend(view)
	if l.incremental {
		merged, err := l.merge(oldN)
		if err != nil {
			return err
		}
		if merged {
			l.extensions++
			return nil
		}
	}
	// Fall back to a full rebuild, the reference computation: a merge of
	// every entry into an emptied order. Only the index and the closures,
	// which do not depend on the order, are reused.
	l.ord, l.order = l.ord[:0], l.order[:0]
	if _, err := l.merge(0); err != nil {
		return err
	}
	l.rebuilds++
	return nil
}

// extend indexes every entry reachable from view that is not already
// indexed, computing its ancestor closure and rank stamp. New entries
// get the ids from the old count up, in dependency order (ancestors
// before descendants). The walk is iterative, and an entry it has
// pushed but not yet numbered sits in the index under id −1, so the
// index alone tells it which entries to skip.
func (l *Linearizer) extend(view []*Entry) {
	stack := l.stack[:0]
	push := func(e *Entry) {
		if e == nil {
			return
		}
		if _, ok := l.index[e]; ok {
			return
		}
		l.index[e] = -1
		stack = append(stack, walkFrame{e: e})
	}
	// One full stack drain per root: within a drain, every node on the
	// stack lies on the DFS path to the top, so a Prev pointer back to
	// an unemitted (still-on-stack) node would be a cycle — excluded by
	// construction (Lemma 18). Pushing all roots up front would break
	// this invariant: a root could sit unemitted below a sibling whose
	// subgraph references it.
	for _, root := range view {
		push(root)
		for len(stack) > 0 {
			top := &stack[len(stack)-1]
			if top.next < len(top.e.Prev) {
				p := top.e.Prev[top.next]
				top.next++
				push(p)
				continue
			}
			// All ancestors are indexed: assign the id and build the
			// closure from the parents'.
			e := top.e
			*top = walkFrame{}
			stack = stack[:len(stack)-1]
			id := len(l.nodes)
			nd := node{e: e, anc: lingraph.NewBits(id), seq: e.Seq}
			for _, p := range e.Prev {
				if p == nil {
					continue
				}
				pid := l.index[p]
				pn := &l.nodes[pid]
				nd.anc.Set(int(pid))
				nd.anc.Or(pn.anc)
				nd.seq = max(nd.seq, pn.seq+1)
			}
			l.index[e] = int32(id)
			l.nodes = append(l.nodes, nd)
			for e.Proc >= len(l.byProc) {
				l.byProc = append(l.byProc, 0)
			}
			l.byProc[e.Proc]++
		}
	}
	l.stack = stack
	l.live.Store(int64(len(l.nodes)))
}

// walkFrame is one entry on extend's walk.
type walkFrame struct {
	e    *Entry
	next int // index of the next Prev pointer to examine
}

// rank orders stable ids by the reference's deterministic key, (seq,
// Proc): the order in which Figure 3 visits pairs and breaks ties.
func (l *Linearizer) rank(a, b int32) int {
	x, y := &l.nodes[a], &l.nodes[b]
	return cmp.Or(cmp.Compare(x.seq, y.seq), cmp.Compare(x.e.Proc, y.e.Proc))
}

// dominates is Definition 14 on two indexed entries.
func (l *Linearizer) dominates(a, b *Entry) bool {
	return spec.Dominates(l.s, a.Inv, a.Proc, b.Inv, b.Proc)
}

// figure3 runs Figure 3 over the nodes ids, which must be in rank
// order, handing lingraph their closures renumbered by position in ids.
func (l *Linearizer) figure3(ids []int32) (*lingraph.Lin, error) {
	prec := make([]lingraph.Bits, len(ids))
	words := 0 // prec[r] holds indices below r
	for r := range ids {
		words += (r + 63) / 64
	}
	slab := make(lingraph.Bits, words) // every closure, in one allocation
	for r, id := range ids {
		w := (r + 63) / 64
		prec[r], slab = slab[:w:w], slab[w:]
		for q, a := range ids[:r] {
			if l.nodes[id].anc.Has(int(a)) {
				prec[r].Set(q)
			}
		}
	}
	l.linearized += uint64(len(ids))
	return lingraph.Build(prec, func(i, j int) bool {
		return l.dominates(l.nodes[ids[i]].e, l.nodes[ids[j]].e)
	})
}

// merge places the entries indexed since oldN (the fresh set F) into
// the cached order of the old set O and reports whether it could. It
// cannot when an old entry outside a fresh entry's ancestor closure
// dominates it; otherwise the result is exactly the order a full
// rebuild would produce (DESIGN decision 7 has the proof). Without such
// a pair L(O ∪ F) has no edge from F to O, so:
//
//   - old pairs keep their Figure 3 decisions and reachability, and old
//     entries keep their cached order, since none has a fresh
//     predecessor;
//   - fresh pairs get exactly Figure 3 over F alone, since no path
//     between two fresh entries leaves F;
//   - Kahn's rule over the union (lowest rank first among ready nodes)
//     therefore interleaves the two: at each step the candidates are
//     the next old entry and the lowest-ranked ready fresh one, where a
//     fresh entry is ready once its predecessors in L(F) are placed and
//     the old order has passed its old parents and the old entries it
//     dominates.
//
// The order is rewritten from the lowest position a fresh entry could
// take, and the replay resumes at the first position the merge changed:
// from the frontier state when every fresh entry lands after the last
// old one, otherwise from the last checkpoint at or before it. With O
// empty (a rebuild, oldN = 0) nothing can dominate, every bound is −1
// and the placement is Kahn's rule over L(F) alone, lingraph's Order.
func (l *Linearizer) merge(oldN int) (bool, error) {
	nf := len(l.nodes) - oldN
	m := int32(len(l.ord))
	if nf == 0 {
		return true, l.sync(int(m), int(m))
	}
	fr := make([]int32, nf) // fresh ids in rank order
	for j := range fr {
		fr[j] = int32(oldN + j)
	}
	slices.SortFunc(fr, l.rank)
	// after[id-oldN] is the last old position fresh entry id must
	// follow: past its old parents, the old entries it dominates and,
	// through each fresh parent, whatever that parent must follow. Ranks
	// are topological, so a fresh parent's bound is final before its
	// children read it. Readiness already waits for fresh parents, so
	// the carried bound moves no placement; it only raises start.
	after := make([]int32, nf)
	start := m
	for _, id := range fr {
		if oldN == 0 {
			// A rebuild: there is nothing to follow or be dominated by.
			after[id] = -1
			continue
		}
		f, a, dominated := l.nodes[id].e, int32(-1), false
		for _, p := range f.Prev {
			if pid, ok := l.index[p]; ok && int(pid) < oldN {
				a = max(a, l.nodes[pid].pos)
			} else if ok {
				a = max(a, after[int(pid)-oldN])
			}
		}
		l.nodes[id].anc.Missing(oldN, func(y int) {
			o := l.nodes[y].e
			if l.dominates(o, f) {
				dominated = true
			} else if l.dominates(f, o) {
				a = max(a, l.nodes[y].pos)
			}
		})
		if dominated {
			return false, nil
		}
		after[int(id)-oldN] = a
		start = min(start, a+1)
	}
	lin, err := l.figure3(fr)
	if err != nil {
		return false, err
	}
	left := make([]int, nf) // unplaced predecessors in L(F); -1 once placed
	for v := range left {
		left[v] = lin.InDegree(v)
	}
	tail := make([]int32, 0, int(m-start)+nf)
	i, from := start, m // from: the first position the merge changes
	for placed := 0; placed < nf; {
		c := 0
		for c < nf && (left[c] != 0 || after[int(fr[c])-oldN] >= i) {
			c++
		}
		if c == nf || (i < m && l.rank(l.ord[i], fr[c]) < 0) {
			tail = append(tail, l.ord[i])
			i++
			continue
		}
		from = min(from, i)
		left[c] = -1
		placed++
		tail = append(tail, fr[c])
		for v := range left { // only an entry still waiting can follow c
			if left[v] > 0 && lin.HasPath(c, v) {
				left[v]--
			}
		}
	}
	tail = append(tail, l.ord[i:]...)
	l.ord, l.order = append(l.ord[:start], tail...), l.order[:start]
	for p := int(start); p < len(l.ord); p++ {
		nd := &l.nodes[l.ord[p]]
		nd.pos = int32(p)
		l.order = append(l.order, nd.e)
	}
	l.rewritten += uint64(len(l.ord) - int(start))
	return true, l.sync(int(from), int(m))
}

// sync brings the replay state to the end of the order after a change
// that left order[:from] as it was; prev is the order's length at the
// previous sync, the prefix the frontier state covers. The replay
// resumes from the frontier state if prev ≤ from, else from the last
// checkpoint at or before from, dropping those past it, else from base
// (a rebuild passes 0, 0). It records a checkpoint whenever it passes
// ckptSpacing entries beyond the last one. The state a replay starts
// from is validated through spec.Key first: if a spec violated
// immutability and a memoized state drifted from its recorded key, the
// replay restarts from base (counted as a checkpoint miss), and if base
// drifted, which leaves no clean state to restart from, sync fails with
// ErrBaseMutated. When nothing is replayed, the validated key is the
// frontier's, so an idle refresh keys the state once.
func (l *Linearizer) sync(from, prev int) error {
	at, st, key := 0, l.base, l.baseKey
	if from >= prev && prev > 0 {
		at, st, key = prev, l.state, l.stateKey
	} else {
		j := l.ckptsUpTo(from)
		l.ckpts = slices.Delete(l.ckpts, j, len(l.ckpts))
		if j > 0 {
			c := l.ckpts[j-1]
			at, st, key = c.pos, c.st, c.key
		}
	}
	if at > 0 && l.key(st) != key {
		l.checkpointMisses++
		at, st, key, l.ckpts = 0, l.base, l.baseKey, slices.Delete(l.ckpts, 0, len(l.ckpts))
	}
	if at == 0 && l.key(st) != key {
		return ErrBaseMutated
	}
	last := 0 // position of the last checkpoint
	if j := len(l.ckpts); j > 0 {
		last = l.ckpts[j-1].pos
	}
	n := len(l.order)
	for p := at; p < n; {
		st = spec.Advance(l.s, st, l.order[p].Inv)
		if p++; p-last == ckptSpacing && p < n {
			l.ckpts = append(l.ckpts, checkpoint{p, st, l.key(st)})
			last = p
		}
	}
	if at < n {
		key = l.key(st)
	}
	l.replayed += uint64(n - at)
	l.state, l.stateKey = st, key
	if n-last == ckptSpacing {
		l.ckpts = append(l.ckpts, checkpoint{n, st, key})
	}
	return nil
}

// ckptsUpTo returns the j for which ckpts[:j] are the checkpoints at
// or before position pos.
func (l *Linearizer) ckptsUpTo(pos int) int {
	j := len(l.ckpts)
	for j > 0 && l.ckpts[j-1].pos > pos {
		j--
	}
	return j
}

// key is spec.Key, counted in LinStats.Keyed.
func (l *Linearizer) key(st spec.State) string {
	l.keyed++
	return l.s.Key(st)
}

// ErrBaseMutated reports that the folded base state no longer has the
// spec.Key recorded when it was set: the spec mutated a state it was
// handed instead of returning a fresh one. A drifted checkpoint is
// replayed again from base, but base has no clean copy, so the engine
// cannot answer; the machines and the truncation protocol panic on it.
var ErrBaseMutated = errors.New("core: the base state changed after its key was recorded (a spec mutated a state in place)")

// ErrTruncatePrefix reports that the entries at or below the proposed
// watermark do not form a prefix of this engine's linearization — a
// dominance inversion straddles the watermark, so folding would change
// the object's behaviour. The truncation protocol treats it as an
// epoch abort: retry later with a higher watermark, which internalizes
// the offending pair.
var ErrTruncatePrefix = errors.New("core: watermark entries are not a linearization prefix")

// Truncate folds every indexed entry with Seq ≤ w into the engine's
// base state and frees them from the index. The caller (the truncation
// protocol in truncate.go) must have established that the fold set is
// closed and final: no entry with Seq ≤ w will ever be indexed again,
// and every engine participating in the epoch has indexed the same
// fold set. Under those conditions the fold set occupies ranks 0..k-1
// of every engine's linearization in the same order, so each engine
// folds to the identical base state. The order-prefix check below
// verifies that the fold set is exactly ranks 0..k-1; the fold is a
// replay of those ranks, which a total, deterministic spec makes
// exactly the state the untruncated engine reaches at rank k. It
// starts from the last replay checkpoint at or before rank k, validated
// through spec.Key like every reused state; a checkpoint that fails
// the check is counted as a miss and the fold starts from base.
//
// On success it returns the number of entries freed and the surviving
// entries whose Prev arrays still point into the fold set (the cut
// boundary — the protocol nils those pointers once every engine has
// folded). It fails with ErrBaseMutated, folding nothing, if the base
// it would fold onto has drifted from its recorded key. The
// linearization order and frontier state are unchanged:
// replaying order from the new base is, by determinism,
// indistinguishable from replaying the full history from Init.
func (l *Linearizer) Truncate(w uint64) (removed int, boundary []*Entry, err error) {
	k := 0
	for _, e := range l.order {
		if e.Seq <= w {
			k++
		}
	}
	if k == 0 {
		return 0, nil, nil
	}
	// The fold set must be exactly the first k linearization ranks.
	for i, e := range l.order {
		if (i < k) != (e.Seq <= w) {
			return 0, nil, ErrTruncatePrefix
		}
	}

	// Fold: once base is known intact, replay the prefix from the last
	// checkpoint at or before k if it passes its Key check, else from
	// base.
	if l.key(l.base) != l.baseKey {
		return 0, nil, ErrBaseMutated
	}
	at, newBase, j := 0, l.base, l.ckptsUpTo(k)
	if j > 0 {
		if c := l.ckpts[j-1]; l.key(c.st) == c.key {
			at, newBase = c.pos, c.st
		} else {
			l.checkpointMisses++
		}
	}
	for _, e := range l.order[at:k] {
		newBase = spec.Advance(l.s, newBase, e.Inv)
	}

	// Rebuild the index over the survivors. Survivors keep their
	// relative id order, so closures remap bit-by-bit with fold-set
	// bits dropped: the fold set is ancestor-closed (Seq is monotone
	// along Prev chains), so no survivor↔survivor precedence path
	// routes through it and dropping the bits loses no ordering. The
	// survivors are order[k:], so their positions drop by k.
	idMap := make([]int32, len(l.nodes))
	survivors := make([]node, 0, len(l.nodes)-k)
	for oldID, nd := range l.nodes {
		if nd.e.Seq <= w {
			idMap[oldID] = -1
			continue
		}
		idMap[oldID] = int32(len(survivors))
		survivors = append(survivors, nd)
	}
	newIndex := make(map[*Entry]int32, len(survivors))
	for newID := range survivors {
		nd := &survivors[newID]
		nb := lingraph.NewBits(newID)
		nd.anc.Each(func(i int) {
			if m := idMap[i]; m >= 0 {
				nb.Set(int(m))
			}
		})
		nd.anc, nd.pos = nb, nd.pos-int32(k)
		newIndex[nd.e] = int32(newID)
		for _, p := range nd.e.Prev {
			if p != nil && p.Seq <= w {
				boundary = append(boundary, nd.e)
				break
			}
		}
	}
	// Fresh order backing arrays: the old ones keep fold-set pointers
	// alive past the cut otherwise.
	newOrder := make([]*Entry, len(l.order)-k)
	copy(newOrder, l.order[k:])
	newOrd := make([]int32, len(newOrder))
	for i, id := range l.ord[k:] {
		newOrd[i] = idMap[id]
	}
	l.nodes, l.index, l.order, l.ord = survivors, newIndex, newOrder, newOrd
	// Checkpoints inside the fold set are superseded by the new base; the
	// rest move down with the order.
	l.ckpts = slices.Delete(l.ckpts, 0, j)
	for i := range l.ckpts {
		l.ckpts[i].pos -= k
	}
	l.live.Store(int64(len(survivors)))
	l.base, l.baseKey = newBase, l.key(newBase)
	l.truncations++
	l.truncated += uint64(k)
	l.folded += uint64(k - at)
	return k, boundary, nil
}
