package core

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/apram/obs"
	"repro/internal/lingraph"
	"repro/internal/pram"
	"repro/internal/sched"
	"repro/internal/spec"
	"repro/internal/types"
)

// This file validates the incremental linearization engine against an
// independent uncached reference: refRespond below is the pre-caching
// implementation (recursive graph walk, map-based ancestor closures,
// full Figure 3 build, replay from Init) kept as an oracle. Every test
// asserts BOTH identical responses and identical linearization orders —
// order equality is the stronger property, since two different orders
// can still agree on one response.

// refRespond is the uncached reference implementation of Respond. It
// ranks entries by (Seq, Proc), with Seq raised above every ancestor's
// where a hand-built history breaks the Lamport rule (the stamps nextSeq
// issues never need it), so the rank order is topological as
// lingraph.Build requires.
func refRespond(t *testing.T, s spec.Spec, view []*Entry, inv spec.Inv) (any, []*Entry) {
	t.Helper()
	index := map[*Entry]int{}
	stamp := map[*Entry]uint64{}
	var entries []*Entry
	var visit func(e *Entry)
	visit = func(e *Entry) {
		if e == nil {
			return
		}
		if _, ok := index[e]; ok {
			return
		}
		index[e] = -1
		stamp[e] = e.Seq
		for _, p := range e.Prev {
			visit(p)
			if p != nil && stamp[p] >= stamp[e] {
				stamp[e] = stamp[p] + 1
			}
		}
		entries = append(entries, e)
	}
	for _, e := range view {
		visit(e)
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if stamp[a] != stamp[b] {
			return stamp[a] < stamp[b]
		}
		return a.Proc < b.Proc
	})
	for i, e := range entries {
		index[e] = i
	}
	ancOf := func(e *Entry) []*Entry {
		seen := map[*Entry]bool{}
		var out []*Entry
		var walk func(x *Entry)
		walk = func(x *Entry) {
			if x == nil || seen[x] {
				return
			}
			seen[x] = true
			out = append(out, x)
			for _, p := range x.Prev {
				walk(p)
			}
		}
		for _, p := range e.Prev {
			walk(p)
		}
		return out
	}
	prec := make([]lingraph.Bits, len(entries))
	for i, e := range entries {
		prec[i] = lingraph.NewBits(len(entries))
		for _, a := range ancOf(e) {
			prec[i].Set(index[a])
		}
	}
	l, err := lingraph.Build(prec, func(i, j int) bool {
		a, b := entries[i], entries[j]
		return spec.Dominates(s, a.Inv, a.Proc, b.Inv, b.Proc)
	})
	if err != nil {
		t.Fatalf("reference build: %v", err)
	}
	hist := make([]*Entry, 0, len(entries))
	invs := make([]spec.Inv, 0, len(entries))
	for _, idx := range l.Order() {
		hist = append(hist, entries[idx])
		invs = append(invs, entries[idx].Inv)
	}
	st, _ := spec.Replay(s, invs)
	_, resp := s.Apply(st, inv)
	return resp, hist
}

// assertSameLinearization compares responses and entry-for-entry
// linearization orders (pointer identity — entries are shared).
func assertSameLinearization(t *testing.T, label string, gotResp, wantResp any, gotHist, wantHist []*Entry) {
	t.Helper()
	if !reflect.DeepEqual(gotResp, wantResp) {
		t.Fatalf("%s: response %v, reference %v", label, gotResp, wantResp)
	}
	if len(gotHist) != len(wantHist) {
		t.Fatalf("%s: linearization length %d, reference %d", label, len(gotHist), len(wantHist))
	}
	for i := range gotHist {
		if gotHist[i] != wantHist[i] {
			t.Fatalf("%s: linearization diverges at %d: %v vs reference %v\n got: %v\nwant: %v",
				label, i, gotHist[i], wantHist[i], gotHist, wantHist)
		}
	}
}

// exploreEquivalence exhaustively enumerates every schedule of the
// given scripts and, on each, re-validates every operation's response
// and linearized history against the uncached reference.
func exploreEquivalence(t *testing.T, s spec.Spec, scripts [][]spec.Inv, budget int) int {
	t.Helper()
	sys, ms := newSimSystem(s, scripts)
	for _, m := range ms {
		m.record = true
	}
	leaves, err := pram.Explore(sys, budget, func(final *pram.System) {
		for _, pm := range final.Machines {
			m := pm.(*Machine)
			if len(m.recViews) != len(m.results) {
				t.Fatalf("proc %d recorded %d views for %d results", m.proc, len(m.recViews), len(m.results))
			}
			for i := range m.recViews {
				wantResp, wantHist := refRespond(t, s, m.recViews[i], m.Invocation(i))
				assertSameLinearization(t, "explored schedule", m.results[i], wantResp, m.recHists[i], wantHist)
			}
		}
	})
	if err != nil {
		t.Fatalf("%v after %d leaves", err, leaves)
	}
	if leaves < 100 {
		t.Fatalf("only %d schedules explored", leaves)
	}
	return leaves
}

// TestExhaustiveIncrementalMatchesReference: every interleaving of
// small workloads, each operation checked against the uncached
// reference for identical responses AND identical linearization
// orders.
func TestExhaustiveIncrementalMatchesReference(t *testing.T) {
	leaves := exploreEquivalence(t, types.Counter{},
		[][]spec.Inv{{types.Inc(1)}, {types.Read()}}, 10_000_000)
	t.Logf("inc‖read: %d schedules re-validated", leaves)

	if testing.Short() {
		return
	}
	leaves = exploreEquivalence(t, types.Counter{},
		[][]spec.Inv{{types.Reset(10)}, {types.Reset(20)}}, 80_000_000)
	t.Logf("reset‖reset: %d schedules re-validated", leaves)

	leaves = exploreEquivalence(t, types.GSet{},
		[][]spec.Inv{{types.Add("x")}, {types.Clear()}}, 40_000_000)
	t.Logf("add‖clear: %d schedules re-validated", leaves)
}

// TestLinearizerFallbackMatchesReference drives the fallback trigger
// deterministically — an old non-ancestor entry that dominates a new
// one, whose key sorts below the old entry's in one case and above it
// in the other — and checks the full-rebuild path against the
// reference. A key regression without dominance must merge instead.
func TestLinearizerFallbackMatchesReference(t *testing.T) {
	s := types.Counter{}
	const n = 3

	// Key regression between increments: the observer first sees P1's
	// Inc, then P0's concurrent Inc, whose key (1,0) sorts below (1,1).
	// Inc never overwrites Inc, so the new entry merges in front of the
	// old one without a rebuild.
	i1 := &Entry{Proc: 1, Seq: 1, Inv: types.Inc(20), Prev: make([]*Entry, n)}
	i0 := &Entry{Proc: 0, Seq: 1, Inv: types.Inc(3), Prev: make([]*Entry, n)}
	l0 := NewLinearizer(s)
	for _, v := range [][]*Entry{{nil, i1, nil}, {i0, i1, nil}} {
		resp, hist, err := l0.Respond(v, types.Read())
		if err != nil {
			t.Fatal(err)
		}
		wr, wh := refRespond(t, s, v, types.Read())
		assertSameLinearization(t, "inc key regression", resp, wr, hist, wh)
	}
	if st := l0.Stats(); st.Rebuilds != 0 || st.Extensions != 2 {
		t.Fatalf("inc key regression stats %+v, want no rebuild", st)
	}

	// Key regression under dominance: the observer first sees P1's
	// Reset, then P0's concurrent Inc, whose key (1,0) sorts below
	// (1,1). The old Reset is no ancestor of the Inc and dominates it.
	e1 := &Entry{Proc: 1, Seq: 1, Inv: types.Reset(20), Prev: make([]*Entry, n)}
	e0 := &Entry{Proc: 0, Seq: 1, Inv: types.Inc(3), Prev: make([]*Entry, n)}
	l := NewLinearizer(s)
	v1 := []*Entry{nil, e1, nil}
	resp, hist, err := l.Respond(v1, types.Read())
	if err != nil {
		t.Fatal(err)
	}
	wr, wh := refRespond(t, s, v1, types.Read())
	assertSameLinearization(t, "first view", resp, wr, hist, wh)
	if st := l.Stats(); st.Rebuilds != 0 || st.Extensions != 1 {
		t.Fatalf("first view stats %+v, want fast path", st)
	}
	v2 := []*Entry{e0, e1, nil}
	resp, hist, err = l.Respond(v2, types.Read())
	if err != nil {
		t.Fatal(err)
	}
	wr, wh = refRespond(t, s, v2, types.Read())
	assertSameLinearization(t, "key regression", resp, wr, hist, wh)
	if st := l.Stats(); st.Rebuilds != 1 {
		t.Fatalf("key regression stats %+v, want one rebuild", st)
	}

	// Dominance violation: the new entry's key (2,0) is above the old
	// (1,1), but the old concurrent reset by the higher process
	// dominates it — the reference would linearize the new entry first.
	d0 := &Entry{Proc: 0, Seq: 2, Inv: types.Reset(10), Prev: make([]*Entry, n)}
	l2 := NewLinearizer(s)
	if _, _, err := l2.Respond(v1, types.Read()); err != nil {
		t.Fatal(err)
	}
	v3 := []*Entry{d0, e1, nil}
	resp, hist, err = l2.Respond(v3, types.Read())
	if err != nil {
		t.Fatal(err)
	}
	wr, wh = refRespond(t, s, v3, types.Read())
	assertSameLinearization(t, "dominance violation", resp, wr, hist, wh)
	if st := l2.Stats(); st.Rebuilds != 1 {
		t.Fatalf("dominance violation stats %+v, want one rebuild", st)
	}
	// The rebuilt cache keeps working incrementally afterwards.
	d1 := &Entry{Proc: 1, Seq: 2, Inv: types.Inc(1), Prev: []*Entry{d0, e1, nil}}
	v4 := []*Entry{d0, d1, nil}
	resp, hist, err = l2.Respond(v4, types.Read())
	if err != nil {
		t.Fatal(err)
	}
	wr, wh = refRespond(t, s, v4, types.Read())
	assertSameLinearization(t, "post-rebuild extension", resp, wr, hist, wh)
	if st := l2.Stats(); st.Rebuilds != 1 || st.Extensions != 2 {
		t.Fatalf("post-rebuild stats %+v, want fast path resumed", st)
	}
}

// TestLinearizerRandomHistoriesMatchReference simulates the universal
// construction's publication protocol sequentially for many mixed
// operations and checks every call of every process's engine against
// the reference. Each call scans an anchor array up to three
// publications old (never older than the process's previous scan or its
// own last entry), so entries run concurrently and Resets give the
// dominance order real work; the per-process sequence numbers drift
// apart, so keys arrive out of rank order. Together they exercise both
// the incremental and the fallback path (asserted).
func TestLinearizerRandomHistoriesMatchReference(t *testing.T) {
	const n = 3
	steps := 250
	if testing.Short() {
		steps = 80
	}
	s := types.Counter{}
	rng := rand.New(rand.NewSource(7))
	lag := rand.New(rand.NewSource(8))
	lins := make([]*Linearizer, n)
	for p := range lins {
		lins[p] = NewLinearizer(s)
	}
	seq := make([]uint64, n)
	latest := make([]*Entry, n)
	// snaps[i] is the anchor array after the i-th publication, and
	// seen[p] the newest one process p has scanned.
	snaps := [][]*Entry{make([]*Entry, n)}
	seen := make([]int, n)
	for i := 0; i < steps; i++ {
		// Skew process selection so sequence numbers drift.
		p := 0
		if r := rng.Intn(10); r >= 7 {
			p = 2
		} else if r >= 4 {
			p = 1
		}
		var inv spec.Inv
		switch rng.Intn(5) {
		case 0:
			inv = types.Inc(int64(rng.Intn(5)))
		case 1:
			inv = types.Dec(int64(rng.Intn(5)))
		case 2:
			inv = types.Reset(int64(rng.Intn(10)))
		default:
			inv = types.Read()
		}
		seen[p] = max(seen[p], len(snaps)-1-lag.Intn(4))
		view := append([]*Entry(nil), snaps[seen[p]]...)
		got, hist, err := lins[p].Respond(view, inv)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		wantResp, wantHist := refRespond(t, s, view, inv)
		assertSameLinearization(t, "random history", got, wantResp, hist, wantHist)
		if !spec.IsPure(s, inv) {
			seq[p]++
			latest[p] = &Entry{Proc: p, Seq: seq[p], Inv: inv, Resp: got, Prev: view}
			snaps = append(snaps, append([]*Entry(nil), latest...))
			seen[p] = len(snaps) - 1
		}
	}
	var ext, reb, miss uint64
	for _, l := range lins {
		st := l.Stats()
		ext += st.Extensions
		reb += st.Rebuilds
		miss += st.CheckpointMisses
	}
	t.Logf("extensions=%d rebuilds=%d", ext, reb)
	if ext == 0 || reb == 0 {
		t.Fatalf("want both paths exercised, got extensions=%d rebuilds=%d", ext, reb)
	}
	if miss != 0 {
		t.Fatalf("checkpoint misses %d with a well-behaved spec", miss)
	}
}

// TestInterleavedIncsNeverRebuild steps eight machines with Inc-only
// scripts under seeded uniform-random and bursty schedulers, whose
// interleavings deliver parallel publishers' keys out of rank order,
// and checks every response and linearization against the reference.
// Inc never overwrites Inc, so no old entry can dominate a new one:
// every refresh must merge, none may rebuild, and each machine hands
// Figure 3 exactly the entries it indexes, once. Some merges must land
// mid-order (each replays the rewritten tail again, so more invocations
// are replayed than indexed), or the sweep would not exercise the
// out-of-order path.
func TestInterleavedIncsNeverRebuild(t *testing.T) {
	const n, ops = 8, 30
	s := types.Counter{}
	scripts := make([][]spec.Inv, n)
	for p := range scripts {
		for i := 0; i < ops; i++ {
			scripts[p] = append(scripts[p], types.Inc(1))
		}
	}
	for _, seed := range []int64{1, 2} {
		for _, sc := range []pram.Scheduler{sched.NewRandom(seed), sched.NewBursty(seed, 8)} {
			sys, ms := newSimSystem(s, scripts)
			for _, m := range ms {
				m.record = true
			}
			if err := sys.Run(sc, 0); err != nil {
				t.Fatal(err)
			}
			var indexed, replayed uint64
			for _, m := range ms {
				for i := range m.recViews {
					wantResp, wantHist := refRespond(t, s, m.recViews[i], m.Invocation(i))
					assertSameLinearization(t, "interleaved incs", m.results[i], wantResp, m.recHists[i], wantHist)
				}
				st, idx := m.LinStats(), uint64(0)
				for q := 0; q < n; q++ {
					idx += uint64(m.lin.IndexedByProc(q))
				}
				if st.Rebuilds != 0 || st.Linearized != idx {
					t.Fatalf("seed %d %T proc %d: %+v for %d indexed entries, want no rebuild and each entry linearized once",
						seed, sc, m.proc, st, idx)
				}
				indexed, replayed = indexed+idx, replayed+st.Replayed
			}
			if replayed <= indexed {
				t.Fatalf("seed %d %T: replayed %d for %d indexed: no merge landed mid-order", seed, sc, replayed, indexed)
			}
		}
	}
}

// TestLocalWorkIndependentOfHistoryLength runs the interleaved Inc
// sweep at 30 and at 250 operations per machine and checks that the
// local work per entry linearized does not grow with the history:
//
//   - Replayed: an out-of-order merge replays from the last checkpoint
//     at or before the first position it changes, never from base;
//   - Rewritten: a merge rewrites the order only from the lowest
//     position a fresh entry can take, which counts every old ancestor,
//     also those reached through a fresh parent.
//
// The 2x margin is the bound on history-independent local work.
func TestLocalWorkIndependentOfHistoryLength(t *testing.T) {
	const n = 8
	s := types.Counter{}
	perEntry := func(sc pram.Scheduler, ops int) (replayed, rewritten float64) {
		scripts := make([][]spec.Inv, n)
		for p := range scripts {
			for i := 0; i < ops; i++ {
				scripts[p] = append(scripts[p], types.Inc(1))
			}
		}
		sys, ms := newSimSystem(s, scripts)
		if err := sys.Run(sc, 0); err != nil {
			t.Fatal(err)
		}
		var sum LinStats
		for _, m := range ms {
			st := m.LinStats()
			sum.Linearized += st.Linearized
			sum.Replayed += st.Replayed
			sum.Rewritten += st.Rewritten
		}
		lin := float64(sum.Linearized)
		return float64(sum.Replayed) / lin, float64(sum.Rewritten) / lin
	}
	for _, mk := range []func() pram.Scheduler{
		func() pram.Scheduler { return sched.NewRandom(1) },
		func() pram.Scheduler { return sched.NewBursty(1, 8) },
	} {
		rep30, rew30 := perEntry(mk(), 30)
		rep250, rew250 := perEntry(mk(), 250)
		t.Logf("%T per linearized entry, 30 -> 250 ops: replayed %.2f -> %.2f, rewritten %.2f -> %.2f",
			mk(), rep30, rep250, rew30, rew250)
		if rep250 > 2*rep30 {
			t.Errorf("%T: replayed per linearized entry grew from %.2f at 30 ops to %.2f at 250, want within 2x",
				mk(), rep30, rep250)
		}
		if rew250 > 2*rew30 {
			t.Errorf("%T: rewritten order positions per linearized entry grew from %.2f at 30 ops to %.2f at 250, want within 2x",
				mk(), rew30, rew250)
		}
	}
}

// TestReplayCheckpointsMatchReference checks the replay checkpoints on
// interleaved histories several checkpoints long. Every Inc amount is
// distinct, so a state replayed from a checkpoint that missed a moved
// entry shows in the next Read; the Inc(1) sweeps above cannot see one.
// Untruncated, every response and linearization must match the
// reference. Truncating every 16 operations, which drops and shifts
// checkpoints mid-run, every response must match the untruncated run's
// under the same schedule: truncation performs no shared accesses, so
// the views are the same.
func TestReplayCheckpointsMatchReference(t *testing.T) {
	const n, ops = 8, 40
	s := types.Counter{}
	scripts := make([][]spec.Inv, n)
	for p := range scripts {
		for i := 0; i < ops; i++ {
			inv := types.Inc(int64(p*ops + i + 1))
			if i%3 == 2 {
				inv = types.Read()
			}
			scripts[p] = append(scripts[p], inv)
		}
	}
	run := func(sc pram.Scheduler, truncate bool) []*Machine {
		sys, ms := newSimSystem(s, scripts)
		tr := NewTruncation(n, 16)
		for _, m := range ms {
			m.record = !truncate
			if truncate {
				m.SetTruncation(tr)
			}
		}
		if err := sys.Run(sc, 0); err != nil {
			t.Fatal(err)
		}
		if truncate && tr.Stats().Epochs == 0 {
			t.Fatalf("%T: no truncation epoch completed", sc)
		}
		return ms
	}
	for _, seed := range []int64{1, 2} {
		for _, mk := range []func() pram.Scheduler{
			func() pram.Scheduler { return sched.NewRandom(seed) },
			func() pram.Scheduler { return sched.NewBursty(seed, 8) },
		} {
			full, cut := run(mk(), false), run(mk(), true)
			for p, m := range full {
				for i := range m.recViews {
					wantResp, wantHist := refRespond(t, s, m.recViews[i], m.Invocation(i))
					assertSameLinearization(t, "checkpointed replay", m.results[i], wantResp, m.recHists[i], wantHist)
				}
				if !reflect.DeepEqual(cut[p].Results(), m.Results()) {
					t.Fatalf("seed %d %T proc %d: truncated run responded %v, untruncated %v",
						seed, mk(), p, cut[p].Results(), m.Results())
				}
			}
		}
	}
}

// TestLocalWorkTracksFreshEntries pins the local-work counters: on a
// round-robin Execute workload every refresh hands Figure 3 and the
// replay exactly its fresh entries, so each slot's totals equal the
// entries it indexed, whether the history is 100 or 1000 operations
// long.
func TestLocalWorkTracksFreshEntries(t *testing.T) {
	const n = 4
	for _, ops := range []int{100, 1000} {
		u := New(types.Counter{}, n)
		for i := 0; i < ops; i++ {
			inv := types.Inc(1)
			if i%3 == 2 {
				inv = types.Read()
			}
			u.Execute(i%n, inv)
		}
		for p := 0; p < n; p++ {
			st, idx := u.LinStats(p), uint64(0)
			for q := 0; q < n; q++ {
				idx += uint64(u.mcs[p].lin.IndexedByProc(q))
			}
			if st.Rebuilds != 0 || st.Linearized != idx || st.Replayed != idx {
				t.Fatalf("%d ops, slot %d: %+v for %d indexed entries, want each linearized and replayed once",
					ops, p, st, idx)
			}
		}
	}
}

// TestTraceUnchangedByIncrementalCache asserts the cache is invisible
// in the paper's cost model: the full shared-access trace (every
// RegReads/RegWrites batch, every publish/pure-elide event, every
// OpDone, in order) of a workload is bit-for-bit identical with the
// incremental engine on and off. Only the EvLinRebuild diagnostic —
// which reports purely local work — may differ, and it is filtered
// before comparison.
func TestTraceUnchangedByIncrementalCache(t *testing.T) {
	const n, rounds = 3, 12
	workload := func(incremental bool) (recs []obs.Record, resps []any, rebuilds int) {
		u := New(types.Counter{}, n)
		u.SetIncremental(incremental)
		u.Instrument(obs.Trace(func(r obs.Record) {
			if r.Kind == obs.KindEvent && r.Event == obs.EvLinRebuild {
				rebuilds++
				return
			}
			recs = append(recs, r)
		}))
		for k := 0; k < rounds; k++ {
			for p := 0; p < n; p++ {
				resps = append(resps, u.Execute(p, types.Inc(int64(p+k))))
				resps = append(resps, u.Execute(p, types.Read()))
			}
		}
		return recs, resps, rebuilds
	}
	fastRecs, fastResps, fastRebuilds := workload(true)
	slowRecs, slowResps, slowRebuilds := workload(false)
	if !reflect.DeepEqual(fastResps, slowResps) {
		t.Fatalf("responses differ:\n fast %v\n slow %v", fastResps, slowResps)
	}
	if !reflect.DeepEqual(fastRecs, slowRecs) {
		t.Fatalf("shared-access traces differ (%d vs %d records)", len(fastRecs), len(slowRecs))
	}
	if fastRebuilds != 0 {
		t.Fatalf("commuting workload took %d rebuilds on the fast path", fastRebuilds)
	}
	if want := n * rounds * 2; slowRebuilds != want {
		t.Fatalf("forced-rebuild arm reported %d EvLinRebuild, want %d", slowRebuilds, want)
	}
}

// TestLinearizerCheckpointValidation corrupts the memoized replay
// state directly (standing in for a spec that breaks immutability) and
// checks that spec.Key validation catches it: the response is still
// correct and the miss is counted.
func TestLinearizerCheckpointValidation(t *testing.T) {
	s := types.Counter{}
	l := NewLinearizer(s)
	e1 := &Entry{Proc: 0, Seq: 1, Inv: types.Inc(5), Prev: make([]*Entry, 2)}
	e2 := &Entry{Proc: 1, Seq: 1, Inv: types.Inc(7), Prev: []*Entry{e1, nil}}
	if _, _, err := l.Respond([]*Entry{e1, nil}, types.Read()); err != nil {
		t.Fatal(err)
	}
	l.state = int64(999) // corrupt the checkpoint behind the engine's back
	resp, _, err := l.Respond([]*Entry{e1, e2}, types.Read())
	if err != nil {
		t.Fatal(err)
	}
	if resp.(int64) != 12 {
		t.Fatalf("read after corrupted checkpoint = %v, want 12", resp)
	}
	if st := l.Stats(); st.CheckpointMisses != 1 {
		t.Fatalf("stats %+v, want exactly one checkpoint miss", st)
	}
	// And a clean follow-up validates without another miss.
	if _, _, err := l.Respond([]*Entry{e1, e2}, types.Read()); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.CheckpointMisses != 1 {
		t.Fatalf("stats %+v after recovery, want no new miss", st)
	}
}

// TestLinearizerMidOrderCheckpointValidation is the same guard for the
// checkpoints inside the order: a merge that lands mid-order restores
// the last checkpoint before it, validates it through spec.Key first,
// and on a mismatch replays from base instead, counting the miss.
func TestLinearizerMidOrderCheckpointValidation(t *testing.T) {
	const k = ckptSpacing
	s := types.Counter{}
	l := NewLinearizer(s)
	// P0 publishes a chain of k+8 Incs, so the order holds one
	// checkpoint, at position k.
	chain := make([]*Entry, k+8)
	var want int64
	for i := range chain {
		prev := make([]*Entry, 2)
		if i > 0 {
			prev[0] = chain[i-1]
		}
		chain[i] = &Entry{Proc: 0, Seq: uint64(i + 1), Inv: types.Inc(int64(i + 1)), Prev: prev}
		want += int64(i + 1)
	}
	if _, _, err := l.Respond([]*Entry{chain[k+7], nil}, types.Read()); err != nil {
		t.Fatal(err)
	}
	if len(l.ckpts) != 1 || l.ckpts[0].pos != k {
		t.Fatalf("checkpoints %+v, want one at position %d", l.ckpts, k)
	}
	// P1's Inc saw the chain up to chain[k+1] (stamp k+2), so its stamp
	// is k+3: it lands after chain[k+2] (the same stamp, lower process)
	// and before chain[k+3], and the replay restarts from the checkpoint.
	f := &Entry{Proc: 1, Seq: k + 3, Inv: types.Inc(1000), Prev: []*Entry{chain[k+1], nil}}
	want += 1000
	l.ckpts[0].st = int64(-1) // corrupt the checkpoint behind the engine's back
	resp, hist, err := l.Respond([]*Entry{chain[k+7], f}, types.Read())
	if err != nil {
		t.Fatal(err)
	}
	if resp.(int64) != want || hist[k+3] != f {
		t.Fatalf("read %v with the new entry at %d, want %d at %d", resp, slices.Index(hist, f), want, k+3)
	}
	if st := l.Stats(); st.CheckpointMisses != 1 || st.Rebuilds != 0 {
		t.Fatalf("stats %+v, want one checkpoint miss and no rebuild", st)
	}
}

// TestLinearizerKeyedCounts pins the engine's spec.Key calls per
// refresh: a refresh that replays nothing validates the frontier state
// and keeps the key it validated (one call), and one that replays a
// suffix without crossing a checkpoint validates the frontier state and
// records the new one (two calls).
func TestLinearizerKeyedCounts(t *testing.T) {
	l := NewLinearizer(types.Counter{})
	if got := l.Stats().Keyed; got != 1 {
		t.Fatalf("a new engine made %d Key calls, want 1 (its base)", got)
	}
	e1 := &Entry{Proc: 0, Seq: 1, Inv: types.Inc(5), Prev: make([]*Entry, 2)}
	e2 := &Entry{Proc: 1, Seq: 2, Inv: types.Inc(7), Prev: []*Entry{e1, nil}}
	for _, c := range []struct {
		what  string
		view  []*Entry
		keyed uint64
	}{
		{"first replay from base", []*Entry{e1, nil}, 2},
		{"refresh replaying nothing", []*Entry{e1, nil}, 1},
		{"refresh replaying a suffix", []*Entry{e1, e2}, 2},
		{"refresh replaying nothing again", []*Entry{e1, e2}, 1},
	} {
		before := l.Stats()
		if _, _, err := l.Respond(c.view, types.Read()); err != nil {
			t.Fatal(err)
		}
		if got := l.Stats().Keyed - before.Keyed; got != c.keyed {
			t.Errorf("%s: %d Key calls, want %d", c.what, got, c.keyed)
		}
	}
	if st := l.Stats(); st.CheckpointMisses != 0 || st.Rebuilds != 0 {
		t.Fatalf("stats %+v, want no checkpoint miss and no rebuild", st)
	}
}

// inPlaceCounter is types.Counter with the defect the replay guard
// exists for: its state is a map that Apply increments in place instead
// of returning a fresh state.
type inPlaceCounter struct{ types.Counter }

func (inPlaceCounter) Init() spec.State { return map[string]int64{} }

func (inPlaceCounter) Apply(s spec.State, inv spec.Inv) (spec.State, any) {
	m := s.(map[string]int64)
	if inv.Op == types.OpInc {
		m["n"] += inv.Arg.(int64)
		return m, nil
	}
	return m, m["n"]
}

func (inPlaceCounter) Equal(a, b spec.State) bool {
	return a.(map[string]int64)["n"] == b.(map[string]int64)["n"]
}

func (inPlaceCounter) Key(s spec.State) string {
	return strconv.FormatInt(s.(map[string]int64)["n"], 10)
}

// TestLinearizerBaseValidation drives a spec that mutates its input
// state in place, with the incremental engine on and off, with and
// without a truncation fold. A replay or fold starting from base finds
// base drifted from its key, and base has no clean copy to fall back
// on, so every read must be exact or fail with ErrBaseMutated, never
// return a wrong sum.
func TestLinearizerBaseValidation(t *testing.T) {
	for _, incremental := range []bool{true, false} {
		for _, truncate := range []bool{false, true} {
			t.Run(fmt.Sprintf("incremental=%v/truncate=%v", incremental, truncate), func(t *testing.T) {
				l := NewLinearizer(inPlaceCounter{})
				l.SetIncremental(incremental)
				var prev *Entry
				for i := 1; i <= 5; i++ {
					e := &Entry{Proc: 0, Seq: uint64(i), Inv: types.Inc(1), Prev: []*Entry{prev}}
					prev = e
					resp, _, err := l.Respond([]*Entry{e}, types.Read())
					if errors.Is(err, ErrBaseMutated) {
						t.Logf("caught at read %d", i)
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if resp != int64(i) {
						t.Fatalf("read %v after %d Incs", resp, i)
					}
					if truncate && i == 3 {
						if _, _, err := l.Truncate(2); errors.Is(err, ErrBaseMutated) {
							t.Logf("caught at the fold after read %d", i)
							return
						} else if err != nil {
							t.Fatal(err)
						}
					}
				}
				if !incremental || truncate {
					t.Fatal("a replay or fold from the mutated base went unchecked")
				}
			})
		}
	}
}

// TestTruncationPanicsOnMutatedBase: the truncation protocol retries an
// epoch whose watermark is not a linearization prefix, but a fold onto
// a drifted base would fail the same way on every retry, so it panics.
func TestTruncationPanicsOnMutatedBase(t *testing.T) {
	l := NewLinearizer(inPlaceCounter{})
	var prev *Entry
	for i := 1; i <= 3; i++ {
		prev = &Entry{Proc: 0, Seq: uint64(i), Inv: types.Inc(1), Prev: []*Entry{prev}}
	}
	view := []*Entry{prev}
	// The replay from base increments base itself: base now reads 3.
	if resp, _, err := l.Respond(view, types.Read()); err != nil || resp != int64(3) {
		t.Fatalf("read %v, %v; want 3", resp, err)
	}
	tr := NewTruncation(1, 1)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, ErrBaseMutated.Error()) {
			t.Fatalf("panic %q, want one carrying ErrBaseMutated", msg)
		}
		if st := tr.Stats(); st.Aborts != 0 || st.Epochs != 0 {
			t.Fatalf("truncation stats %+v, want no abort and no epoch", st)
		}
	}()
	tr.opEnd(0, view, l, nil)
	t.Fatalf("the fold onto a mutated base returned; truncation stats %+v", tr.Stats())
}
