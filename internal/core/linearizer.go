package core

import (
	"errors"
	"math/bits"
	"sort"
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
//     never revisited, and discovery is iterative (no recursion) with
//     a generation-stamped visited set;
//  2. ancestor closures as dense bitsets keyed by a stable node id,
//     computed by OR-ing the parents' closures;
//  3. the linearization order, extended by linearizing only the new
//     entries when they form a suffix-compatible extension (see
//     suffixCompatible), with a fall-back to a full rebuild otherwise
//     — fallbacks are counted and surfaced as obs.EvLinRebuild;
//  4. a sequential-replay checkpoint: the spec state at the frontier
//     of the previous linearization, validated via spec.Key before
//     reuse, so Respond replays only the linearization's new suffix.
//
// A Linearizer is owned by one process (one goroutine at a time); the
// *Entry values it indexes are immutable and shared freely.
type Linearizer struct {
	s spec.Spec

	// entries[id] is the entry with stable node id `id`; ids are
	// assigned in discovery order, which is ancestor-closed (every
	// entry's ancestors have smaller ids than... not necessarily
	// smaller ids, but are always assigned before it), so closures can
	// be built by OR-ing parents.
	entries []*Entry
	index   map[*Entry]int32 // entry -> stable node id
	anc     []bitset         // anc[id] = precedence ancestors of id (stable ids), excluding id

	// live mirrors len(entries) for Retained, which observers on other
	// goroutines (telemetry gauges, samplers) call while the owning
	// process extends and truncates the index.
	live atomic.Int64

	// gen stamps the visited set used during discovery so one map
	// serves every call without clearing.
	gen     uint32
	visited map[*Entry]uint32

	// maxSeq/maxProc is the maximum (Seq, Proc) key over all indexed
	// entries — the suffix-compatibility watermark.
	maxSeq  uint64
	maxProc int

	// order is the current linearization of all indexed entries; state
	// is the spec state after replaying it FROM base, and stateKey its
	// spec.Key at memoization time (checkpoint validation). base is the
	// folded state of every truncated history prefix (spec.Init() until
	// the first truncation) and baseKey its validation key: replay
	// always starts from base, never from Init, so folded entries stay
	// part of the object's history after their *Entry values are freed.
	order    []*Entry
	state    spec.State
	stateKey string
	base     spec.State
	baseKey  string

	// byProc[q] counts the q-entries this engine has EVER indexed —
	// monotone across truncations (Truncate never decrements it).
	// Because an engine's views grow monotonically and closures are
	// ancestor-closed, the indexed q-entries always form a prefix of
	// q's publication chain, so these counts are exactly the truncation
	// protocol's fold-readiness watermark (see truncate.go).
	byProc []int

	// dom memoizes spec.Dominates per entry pair. Dominance depends
	// only on the two entries' immutable (Inv, Proc), yet a full
	// rebuild re-asks every pair — O(m²) evaluations each time — and
	// with batched invocations (apram/serve) a single evaluation costs
	// O(cap²) base-algebra calls. The memo trades one evaluation per
	// distinct pair for O(pairs) memory — which is quadratic in the
	// live set, so it is capped at domMemoCap entries: a scheduling
	// burst that balloons the graph while a truncation epoch lags
	// would otherwise turn one rebuild into hundreds of megabytes of
	// permanently-filtered pairs. Evaluations past the cap simply are
	// not memoized; dominance stays a pure local computation either
	// way, so the cap costs CPU on pathological runs, never
	// correctness.
	dom map[domPair]bool

	// stats, exposed via Stats.
	calls, extensions, rebuilds, checkpointMisses uint64
	truncations, truncated                        uint64

	// incremental disabled forces the full-rebuild path on every call
	// (the ablation arm of the long-history benchmarks).
	incremental bool
}

// NewLinearizer returns an empty engine for s. A fresh engine used for
// a single Respond call behaves exactly like the uncached reference
// implementation.
func NewLinearizer(s spec.Spec) *Linearizer {
	st := s.Init()
	key := s.Key(st)
	return &Linearizer{
		s:           s,
		index:       map[*Entry]int32{},
		visited:     map[*Entry]uint32{},
		dom:         map[domPair]bool{},
		state:       st,
		stateKey:    key,
		base:        st,
		baseKey:     key,
		incremental: true,
	}
}

type domPair struct{ a, b *Entry }

// domMemoCap bounds the dominance memo (see the dom field comment).
const domMemoCap = 1 << 18

// dominates is the memoized Definition 14 check for indexed entries.
func (l *Linearizer) dominates(a, b *Entry) bool {
	k := domPair{a, b}
	if v, ok := l.dom[k]; ok {
		return v
	}
	v := spec.Dominates(l.s, a.Inv, a.Proc, b.Inv, b.Proc)
	if len(l.dom) < domMemoCap {
		l.dom[k] = v
	}
	return v
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
	// Truncations counts successful Truncate folds, and Truncated the
	// total entries those folds freed from this engine's index.
	Truncations uint64
	Truncated   uint64
}

// Stats returns the engine's counters.
func (l *Linearizer) Stats() LinStats {
	return LinStats{
		Calls:            l.calls,
		Extensions:       l.extensions,
		Rebuilds:         l.rebuilds,
		CheckpointMisses: l.checkpointMisses,
		Truncations:      l.truncations,
		Truncated:        l.truncated,
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
	oldN := len(l.entries)
	fresh := l.extend(view)
	if l.incremental && l.suffixCompatible(oldN, fresh) {
		if err := l.extendOrder(fresh); err != nil {
			return err
		}
		l.extensions++
	} else {
		if err := l.rebuild(); err != nil {
			return err
		}
		l.rebuilds++
	}
	l.bumpWatermark(fresh)
	return nil
}

// extend indexes every entry reachable from view that is not already
// indexed, computing its ancestor closure, and returns the new entries
// in dependency order (ancestors before descendants). The walk is
// iterative; the generation-stamped visited map keeps a single
// allocation serving every call.
func (l *Linearizer) extend(view []*Entry) []*Entry {
	l.gen++
	type frame struct {
		e    *Entry
		next int // index of the next Prev pointer to examine
	}
	var stack []frame
	push := func(e *Entry) {
		if e == nil {
			return
		}
		if _, ok := l.index[e]; ok {
			return
		}
		if l.visited[e] == l.gen {
			return
		}
		l.visited[e] = l.gen
		stack = append(stack, frame{e: e})
	}
	var fresh []*Entry
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
			stack = stack[:len(stack)-1]
			id := int32(len(l.entries))
			l.entries = append(l.entries, e)
			l.index[e] = id
			a := newBitset(len(l.entries))
			for _, p := range e.Prev {
				if p == nil {
					continue
				}
				pid := l.index[p]
				a.set(int(pid))
				a.or(l.anc[pid])
			}
			l.anc = append(l.anc, a)
			for e.Proc >= len(l.byProc) {
				l.byProc = append(l.byProc, 0)
			}
			l.byProc[e.Proc]++
			fresh = append(fresh, e)
		}
	}
	l.live.Store(int64(len(l.entries)))
	return fresh
}

// suffixCompatible reports whether the fresh entries extend the cached
// linearization exactly: the full-rebuild reference would produce the
// old order unchanged followed by the new entries. Two conditions:
//
//  1. every fresh entry's (Seq, Proc) key is above the watermark, so
//     the reference's deterministic (Seq, Proc) node ordering — and
//     with it every index tie-break — is unchanged on the old nodes;
//  2. no old entry OUTSIDE a fresh entry's ancestor closure dominates
//     it; such a pair would let the reference linearize the fresh
//     entry before an old one (a dominance edge new→old), so the old
//     order would no longer be a prefix.
//
// Under these conditions no dominance edge into the old subgraph can
// appear, old-old pair decisions and reachability are untouched, and
// the reference's topological tie-breaks pick every old node before
// any new one — the old linearization is exactly preserved.
func (l *Linearizer) suffixCompatible(oldN int, fresh []*Entry) bool {
	if len(fresh) == 0 {
		return true
	}
	for _, e := range fresh {
		if oldN > 0 && !keyAbove(e, l.maxSeq, l.maxProc) {
			return false
		}
		a := l.anc[l.index[e]]
		if a.countBelow(oldN) == oldN {
			continue // every old entry precedes e; nothing can dominate it from outside
		}
		for y := 0; y < oldN; y++ {
			if a.has(y) {
				continue
			}
			o := l.entries[y]
			if l.dominates(o, e) {
				return false
			}
		}
	}
	return true
}

// keyAbove reports (e.Seq, e.Proc) > (seq, proc) lexicographically.
func keyAbove(e *Entry, seq uint64, proc int) bool {
	return e.Seq > seq || (e.Seq == seq && e.Proc > proc)
}

// bumpWatermark raises the (Seq, Proc) watermark over fresh entries.
func (l *Linearizer) bumpWatermark(fresh []*Entry) {
	for _, e := range fresh {
		if keyAbove(e, l.maxSeq, l.maxProc) {
			l.maxSeq, l.maxProc = e.Seq, e.Proc
		}
	}
}

// extendOrder runs the Figure 3 construction over the fresh entries
// only and appends the result to the cached linearization, advancing
// the replay checkpoint by the suffix. Dominance edges from old to
// fresh entries need no representation: they only reiterate that old
// entries linearize first, which suffix-compatibility already
// guarantees, and they cannot influence the relative order of the
// fresh entries (no path leaves the old subgraph through them).
func (l *Linearizer) extendOrder(fresh []*Entry) error {
	if len(fresh) == 0 {
		l.checkpoint(nil)
		return nil
	}
	batch := append([]*Entry(nil), fresh...)
	sortEntries(batch)
	ids := make([]int32, len(batch))
	for j, e := range batch {
		ids[j] = l.index[e]
	}
	pg := lingraph.NewGraph(len(batch))
	for j := range batch {
		aj := l.anc[ids[j]]
		for i := range batch {
			if i != j && aj.has(int(ids[i])) {
				pg.AddPrecedence(i, j)
			}
		}
	}
	lin, err := lingraph.Build(pg, func(i, j int) bool {
		return l.dominates(batch[i], batch[j])
	})
	if err != nil {
		return err
	}
	suffix := make([]*Entry, 0, len(batch))
	for _, idx := range lin.Order() {
		suffix = append(suffix, batch[idx])
	}
	l.order = append(l.order, suffix...)
	l.checkpoint(suffix)
	return nil
}

// rebuild recomputes the linearization of every indexed entry from
// scratch — the reference (uncached) computation, reusing only the
// entry index and the ancestor bitsets (both independent of order).
func (l *Linearizer) rebuild() error {
	k := len(l.entries)
	sorted := append([]*Entry(nil), l.entries...)
	sortEntries(sorted)
	rankOf := make([]int32, k) // stable id -> canonical rank
	for r, e := range sorted {
		rankOf[l.index[e]] = int32(r)
	}
	pg := lingraph.NewGraph(k)
	for r, e := range sorted {
		l.anc[l.index[e]].each(func(aid int) {
			pg.AddPrecedence(int(rankOf[aid]), r)
		})
	}
	lin, err := lingraph.Build(pg, func(i, j int) bool {
		return l.dominates(sorted[i], sorted[j])
	})
	if err != nil {
		return err
	}
	l.order = l.order[:0]
	invs := make([]spec.Inv, 0, k)
	for _, idx := range lin.Order() {
		l.order = append(l.order, sorted[idx])
		invs = append(invs, sorted[idx].Inv)
	}
	st, _ := spec.ReplayFrom(l.s, l.base, invs)
	l.state, l.stateKey = st, l.s.Key(st)
	return nil
}

// checkpoint advances the replay checkpoint by the linearization's new
// suffix. The cached state is validated through spec.Key first: if a
// spec violated immutability and the memoized state drifted from its
// recorded key, the checkpoint is discarded and the state recomputed
// from the base state (counted as a checkpoint miss).
func (l *Linearizer) checkpoint(suffix []*Entry) {
	if l.s.Key(l.state) != l.stateKey {
		l.checkpointMisses++
		st := l.base
		for _, e := range l.order[:len(l.order)-len(suffix)] {
			st, _ = l.s.Apply(st, e.Inv)
		}
		l.state = st
	}
	for _, e := range suffix {
		l.state, _ = l.s.Apply(l.state, e.Inv)
	}
	l.stateKey = l.s.Key(l.state)
}

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
// folds to the identical base state — which the order-prefix check
// verifies and the spec.Key-validated codec round-trip cross-checks.
//
// On success it returns the number of entries freed and the surviving
// entries whose Prev arrays still point into the fold set (the cut
// boundary — the protocol nils those pointers once every engine has
// folded). The linearization order, frontier state, and watermark are
// unchanged: replaying order from the new base is, by determinism,
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

	// Fold: replay the prefix onto base, then validate the fold through
	// the checkpoint codec (encode → decode → spec.Key cross-check). A
	// codec failure aborts the fold with the engine untouched.
	invs := make([]spec.Inv, k)
	for i := 0; i < k; i++ {
		invs[i] = l.order[i].Inv
	}
	newBase, _ := spec.ReplayFrom(l.s, l.base, invs)
	ck, err := spec.MakeCheckpoint(l.s, newBase)
	if err != nil {
		return 0, nil, err
	}

	// Rebuild the index over the survivors. Survivors keep their
	// relative id order, so closures remap bit-by-bit with fold-set
	// bits dropped: the fold set is ancestor-closed (Seq is monotone
	// along Prev chains), so no survivor↔survivor precedence path
	// routes through it and dropping the bits loses no ordering.
	idMap := make([]int32, len(l.entries))
	survivors := make([]*Entry, 0, len(l.entries)-k)
	for oldID, e := range l.entries {
		if e.Seq <= w {
			idMap[oldID] = -1
			continue
		}
		idMap[oldID] = int32(len(survivors))
		survivors = append(survivors, e)
	}
	newIndex := make(map[*Entry]int32, len(survivors))
	newAnc := make([]bitset, len(survivors))
	for newID, e := range survivors {
		old := l.anc[l.index[e]]
		nb := newBitset(len(survivors))
		old.each(func(i int) {
			if m := idMap[i]; m >= 0 {
				nb.set(int(m))
			}
		})
		newIndex[e] = int32(newID)
		newAnc[newID] = nb
		for _, p := range e.Prev {
			if p != nil && p.Seq <= w {
				boundary = append(boundary, e)
				break
			}
		}
	}
	// Fresh order backing array: the old one keeps fold-set pointers
	// alive past the cut otherwise.
	newOrder := make([]*Entry, len(l.order)-k)
	copy(newOrder, l.order[k:])
	// The dominance memo survives filtered to surviving pairs — into a
	// fresh map, never by deleting in place: a Go map's bucket array
	// never shrinks, so after a backlog spike (the live set inflated
	// while an epoch lagged behind a stalled process) in-place pruning
	// would leave every subsequent epoch iterating — and the engine
	// retaining — the peak-sized table forever. The visited map is
	// rebuilt for the same reason (and its keys are freed entries).
	newDom := make(map[domPair]bool, 2*len(survivors))
	for kp, v := range l.dom {
		if _, ok := newIndex[kp.a]; !ok {
			continue
		}
		if _, ok := newIndex[kp.b]; !ok {
			continue
		}
		newDom[kp] = v
	}
	l.dom = newDom
	l.entries, l.index, l.anc, l.order = survivors, newIndex, newAnc, newOrder
	l.live.Store(int64(len(survivors)))
	l.visited = map[*Entry]uint32{}
	l.gen = 0
	l.base, l.baseKey = newBase, ck.Key
	l.truncations++
	l.truncated += uint64(k)
	return k, boundary, nil
}

// sortEntries orders entries by the reference's deterministic key.
func sortEntries(es []*Entry) {
	sort.Slice(es, func(i, j int) bool {
		a, b := es[i], es[j]
		if a.Seq != b.Seq {
			return a.Seq < b.Seq
		}
		return a.Proc < b.Proc
	})
}

// bitset is a growable bit vector over stable node ids.
type bitset []uint64

func newBitset(k int) bitset { return make(bitset, (k+63)/64) }

func (b bitset) has(i int) bool {
	w := i / 64
	return w < len(b) && b[w]&(1<<(i%64)) != 0
}

func (b *bitset) set(i int) {
	w := i / 64
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (i % 64)
}

// or folds o into b (b grows to cover o).
func (b *bitset) or(o bitset) {
	for len(*b) < len(o) {
		*b = append(*b, 0)
	}
	for i, w := range o {
		(*b)[i] |= w
	}
}

// countBelow counts set bits with index < n.
func (b bitset) countBelow(n int) int {
	full := n / 64
	if full > len(b) {
		full = len(b)
	}
	c := 0
	for _, w := range b[:full] {
		c += bits.OnesCount64(w)
	}
	if rem := n % 64; rem > 0 && full == n/64 && full < len(b) {
		c += bits.OnesCount64(b[full] & (1<<rem - 1))
	}
	return c
}

// each calls f for every set bit, ascending.
func (b bitset) each(f func(i int)) {
	for wi, w := range b {
		for w != 0 {
			f(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
