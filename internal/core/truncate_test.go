package core

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/apram/obs"
	"repro/internal/spec"
	"repro/internal/types"
)

// TestTruncateNativeCounterEquivalence hammers a truncation-enabled
// native counter from many goroutines and checks the one invariant
// that needs no linearizability search: without resets, the final read
// is the exact signed sum of every applied delta. Truncation must not
// lose, duplicate, or reorder effects across fold boundaries. It also
// checks the memory bound actually binds: epochs ran and the live
// entry graph stayed far below the operation count.
func TestTruncateNativeCounterEquivalence(t *testing.T) {
	const n, per, every = 4, 400, 16
	u := New(types.Counter{}, n)
	u.EnableTruncation(every)
	var want int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p) + 1))
			var local int64
			for k := 0; k < per; k++ {
				switch rng.Intn(3) {
				case 0:
					amt := int64(rng.Intn(9))
					u.Execute(p, types.Inc(amt))
					local += amt
				case 1:
					amt := int64(rng.Intn(9))
					u.Execute(p, types.Dec(amt))
					local -= amt
				default:
					u.Execute(p, types.Read())
				}
			}
			mu.Lock()
			want += local
			mu.Unlock()
		}(p)
	}
	wg.Wait()
	// Epochs need every slot's participation; slots that finished early
	// stopped providing turn boundaries, so drive the tail sequentially
	// — every slot active — the way the serving layer's idle ticker
	// does, and let the watermark catch up to the history's end.
	for k := 0; k < 200; k++ {
		u.Execute(k%n, types.Inc(1))
		want++
		if k%8 == 7 {
			for p := 0; p < n; p++ {
				u.TruncTick(p)
			}
		}
	}
	for i := 0; i < 8; i++ {
		for p := 0; p < n; p++ {
			u.TruncTick(p)
		}
	}
	if got := u.Execute(0, types.Read()).(int64); got != want {
		t.Fatalf("final read %d, want %d", got, want)
	}
	st := u.TruncStats()
	if st.Epochs == 0 {
		t.Fatalf("no truncation epochs ran: %+v", st)
	}
	if st.Freed == 0 {
		t.Fatalf("truncation freed nothing: %+v", st)
	}
	if r := u.Retained(); r > 300 {
		t.Fatalf("retained %d entries after %d ops — memory not bounded", r, n*per+200)
	}
}

// TestTruncateSimTraceIdentical runs the same single-driver operation
// sequence against two simulated objects — one truncating, one
// unbounded — under the same deterministic scheduler, and requires
// bit-identical responses AND bit-identical shared-access counters.
// Truncation coordinates purely through process-local state, so the
// register trace may not shift by a single read.
func TestTruncateSimTraceIdentical(t *testing.T) {
	for _, s := range types.Property1Types() {
		t.Run(s.Name(), func(t *testing.T) {
			const n, ops = 3, 300
			ref := NewSimulated(s, n, nil)
			tr := NewSimulated(s, n, nil)
			tr.EnableTruncation(8)
			rng := rand.New(rand.NewSource(7))
			invs := s.(types.Sampler).SampleInvocations()
			for k := 0; k < ops; k++ {
				p := rng.Intn(n)
				inv := invs[rng.Intn(len(invs))]
				a := ref.Execute(p, inv)
				b := tr.Execute(p, inv)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("op %d (%v on slot %d): ref=%v truncated=%v", k, inv, p, a, b)
				}
			}
			rc, tc := ref.SimCounters(), tr.SimCounters()
			if rc.Reads != tc.Reads || rc.Writes != tc.Writes {
				t.Fatalf("shared-access trace diverged: ref R/W %d/%d, truncated %d/%d",
					rc.Reads, rc.Writes, tc.Reads, tc.Writes)
			}
			if st := tr.TruncStats(); st.Epochs == 0 {
				t.Fatalf("no truncation epochs ran on %s: %+v", s.Name(), st)
			}
		})
	}
}

// bareSpec hides a spec's optional extensions (purity, partitioning,
// samples) behind the bare spec.Spec interface, modelling a
// user-defined type that implements nothing else.
type bareSpec struct{ spec.Spec }

// TestTruncateGracefulDegradation: a spec that implements only
// spec.Spec truncates when asked. A fold is a replay onto the base
// state, so no optional extension gates it: epochs complete, entries
// are freed, and the final value is exact.
func TestTruncateGracefulDegradation(t *testing.T) {
	const n, ops = 2, 100
	u := New(bareSpec{types.Counter{}}, n)
	u.EnableTruncation(4)
	for k := 0; k < ops; k++ {
		u.Execute(k%n, types.Inc(1))
	}
	for i := 0; i < 8; i++ {
		for p := 0; p < n; p++ {
			u.TruncTick(p)
		}
	}
	if st := u.TruncStats(); st.Epochs == 0 || st.Freed == 0 || st.Phase != "idle" {
		t.Fatalf("bare spec did not truncate: %+v", st)
	}
	if got := u.Execute(0, types.Read()).(int64); got != ops {
		t.Fatalf("final read %d, want %d", got, ops)
	}
}

// TestTruncateEvents checks the observability plumbing: folds emit
// EvCheckpoint per participating slot and the epoch cut emits one
// EvTruncate.
func TestTruncateEvents(t *testing.T) {
	const n = 2
	st := obs.NewStats(n)
	u := New(types.Counter{}, n)
	u.Instrument(st)
	u.EnableTruncation(4)
	for k := 0; k < 200; k++ {
		u.Execute(k%n, types.Inc(1))
	}
	// Drive any epoch still mid-flight home from idle slots.
	for i := 0; i < 8; i++ {
		for p := 0; p < n; p++ {
			u.TruncTick(p)
		}
	}
	ts := u.TruncStats()
	if ts.Epochs == 0 {
		t.Fatalf("no epochs: %+v", ts)
	}
	if got := st.Events(obs.EvTruncate); got != ts.Epochs {
		t.Fatalf("EvTruncate count %d, want %d", got, ts.Epochs)
	}
	if got := st.Events(obs.EvCheckpoint); got != ts.Epochs*uint64(n) {
		t.Fatalf("EvCheckpoint count %d, want %d (one per slot per epoch)", got, ts.Epochs*n)
	}
}

// TestLinearizerTruncateDirect exercises the fold on a hand-built
// entry graph: truncate a dominated prefix, verify retained counts,
// verify post-fold responses still replay from the checkpointed base,
// and verify the non-prefix case returns ErrTruncatePrefix.
func TestLinearizerTruncateDirect(t *testing.T) {
	s := types.Counter{}
	l := NewLinearizer(s)
	bottom := make([]*Entry, 2)

	e1 := &Entry{Proc: 0, Seq: 1, Inv: types.Inc(10), Prev: bottom}
	v1 := []*Entry{e1, nil}
	if _, _, err := l.Respond(v1, types.Read()); err != nil {
		t.Fatal(err)
	}
	e2 := &Entry{Proc: 1, Seq: 2, Inv: types.Inc(5), Prev: v1}
	v2 := []*Entry{e1, e2}
	if _, _, err := l.Respond(v2, types.Read()); err != nil {
		t.Fatal(err)
	}
	e3 := &Entry{Proc: 0, Seq: 3, Inv: types.Dec(1), Prev: v2}
	v3 := []*Entry{e3, e2}
	resp, _, err := l.Respond(v3, types.Read())
	if err != nil {
		t.Fatal(err)
	}
	if resp.(int64) != 14 {
		t.Fatalf("pre-truncate read %v, want 14", resp)
	}

	// Truncate at w=1: only e1 folds. (w=2 would fold e2, proc 1's
	// anchor — exactly what the protocol's −1 forbids, since views
	// citing it would re-discover a freed entry.)
	removed, boundary, err := l.Truncate(1)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("removed %d, want 1", removed)
	}
	if l.Retained() != 2 {
		t.Fatalf("retained %d, want 2", l.Retained())
	}
	// Both survivors cite e1 in their Prev arrays.
	if len(boundary) != 2 {
		t.Fatalf("boundary %v, want [e2 e3]", boundary)
	}

	// The survivor's response must now replay from the folded base.
	resp, _, err = l.Respond(v3, types.Read())
	if err != nil {
		t.Fatal(err)
	}
	if resp.(int64) != 14 {
		t.Fatalf("post-truncate read %v, want 14", resp)
	}

	// New entries on top of the truncated graph keep working.
	e4 := &Entry{Proc: 1, Seq: 4, Inv: types.Inc(100), Prev: v3}
	v4 := []*Entry{e3, e4}
	resp, _, err = l.Respond(v4, types.Read())
	if err != nil {
		t.Fatal(err)
	}
	if resp.(int64) != 114 {
		t.Fatalf("post-truncate extended read %v, want 114", resp)
	}

	// Truncating below every entry is a no-op, not an error.
	if rm, _, err := l.Truncate(0); err != nil || rm != 0 {
		t.Fatalf("empty truncate: removed %d err %v", rm, err)
	}
}

// TestLinearizerTruncatePrefixError: when the watermark set is not a
// linearization prefix — an above-watermark entry is forced before a
// watermark entry — Truncate must refuse with ErrTruncatePrefix
// rather than fold a non-causal cut. Well-formed Lamport stamps make
// this unreachable (precedence implies a larger stamp), so the graph
// is deliberately malformed: eB cites eA in Prev yet carries a SMALLER
// stamp, forcing the order [eA, eB] while watermark 4 selects only eB.
func TestLinearizerTruncatePrefixError(t *testing.T) {
	s := types.Counter{}
	l := NewLinearizer(s)
	bottom := make([]*Entry, 2)

	eA := &Entry{Proc: 0, Seq: 5, Inv: types.Inc(1), Prev: bottom}
	vA := []*Entry{eA, nil}
	if _, _, err := l.Respond(vA, types.Read()); err != nil {
		t.Fatal(err)
	}
	eB := &Entry{Proc: 1, Seq: 1, Inv: types.Inc(2), Prev: vA}
	if _, _, err := l.Respond([]*Entry{eA, eB}, types.Read()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Truncate(4); err != ErrTruncatePrefix {
		t.Fatalf("err %v, want ErrTruncatePrefix", err)
	}
	// The refusal must leave the engine intact.
	resp, _, err := l.Respond([]*Entry{eA, eB}, types.Read())
	if err != nil {
		t.Fatal(err)
	}
	if resp.(int64) != 3 {
		t.Fatalf("post-refusal read %v, want 3", resp)
	}
}

// TestLinearizerFoldFromCheckpoint: Truncate folds the prefix from the
// last replay checkpoint at or before the fold boundary, not from base,
// and counts the invocations it applies in LinStats.Folded. Like every
// reused state the checkpoint is validated through spec.Key first: a
// corrupted one is counted as a miss, the fold starts from base, and
// every later read is exact, including one that replays from the new
// base.
func TestLinearizerFoldFromCheckpoint(t *testing.T) {
	const c = ckptSpacing
	for _, tc := range []struct {
		name           string
		corrupt        bool
		folded, misses uint64
	}{
		{"intact", false, 4, 0},     // the boundary c+4 lies 4 past the checkpoint
		{"corrupt", true, c + 4, 1}, // the whole prefix, from base
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLinearizer(types.Counter{})
			// P0 publishes a chain of c+8 Incs, so the order holds one
			// checkpoint, at position c.
			chain := make([]*Entry, c+8)
			var want int64
			for i := range chain {
				prev := make([]*Entry, 2)
				if i > 0 {
					prev[0] = chain[i-1]
				}
				chain[i] = &Entry{Proc: 0, Seq: uint64(i + 1), Inv: types.Inc(int64(i + 1)), Prev: prev}
				want += int64(i + 1)
			}
			view := []*Entry{chain[c+7], nil}
			if _, _, err := l.Respond(view, types.Read()); err != nil {
				t.Fatal(err)
			}
			if len(l.ckpts) != 1 || l.ckpts[0].pos != c {
				t.Fatalf("checkpoints %+v, want one at position %d", l.ckpts, c)
			}
			if tc.corrupt {
				l.ckpts[0].st = int64(-1) // behind the engine's back
			}
			if removed, _, err := l.Truncate(c + 4); err != nil || removed != c+4 {
				t.Fatalf("Truncate: removed %d, err %v; want %d, nil", removed, err, c+4)
			}
			if st := l.Stats(); st.Folded != tc.folded || st.CheckpointMisses != tc.misses {
				t.Fatalf("stats %+v, want Folded %d and %d checkpoint misses", st, tc.folded, tc.misses)
			}
			if resp, _, err := l.Respond(view, types.Read()); err != nil || resp.(int64) != want {
				t.Fatalf("read after the fold %v (err %v), want %d", resp, err, want)
			}
			// P1 saw the chain up to chain[c+4]: its Inc lands before
			// chain[c+6], so the replay restarts from the new base.
			f := &Entry{Proc: 1, Seq: c + 6, Inv: types.Inc(1000), Prev: []*Entry{chain[c+4], nil}}
			want += 1000
			resp, hist, err := l.Respond([]*Entry{chain[c+7], f}, types.Read())
			if err != nil || resp.(int64) != want || hist[2] != f {
				t.Fatalf("read %v (err %v) with history %v, want %d with the new entry third", resp, err, hist, want)
			}
			if st := l.Stats(); st.CheckpointMisses != tc.misses || st.Rebuilds != 0 {
				t.Fatalf("stats %+v, want %d checkpoint misses and no rebuild", st, tc.misses)
			}
		})
	}
}

// TestTruncateSimIdleTick: with traffic on one slot only, epochs can
// still complete because idle slots are driven via TruncTick (the
// serving layer's idle path).
func TestTruncateSimIdleTick(t *testing.T) {
	const n = 3
	u := NewSimulated(types.Counter{}, n, nil)
	u.EnableTruncation(4)
	for k := 0; k < 100; k++ {
		u.Execute(0, types.Inc(1))
		if k%5 == 4 {
			for p := 1; p < n; p++ {
				u.TruncTick(p)
			}
		}
	}
	for i := 0; i < 8; i++ {
		for p := 0; p < n; p++ {
			u.TruncTick(p)
		}
	}
	if st := u.TruncStats(); st.Epochs == 0 {
		t.Fatalf("idle ticks never completed an epoch: %+v", st)
	}
	if got := u.Execute(0, types.Read()).(int64); got != 100 {
		t.Fatalf("final read %d, want 100", got)
	}
}

// TestTruncateLagBackpressure: a starved slot that never reaches a
// turn boundary holds the epoch in its proposed phase; once live
// traffic outruns the stalled epoch by a full proposal interval, the
// coordinator flags it — LaggingEpochs ticks and exactly one
// EvTruncLag fires per lagging epoch — and the epoch still completes
// when the starved slot finally lends its idle ticks.
func TestTruncateLagBackpressure(t *testing.T) {
	const n, every = 2, 4
	st := obs.NewStats(n)
	u := New(types.Counter{}, n)
	u.Instrument(st)
	u.EnableTruncation(every)
	// Slot 1 is starved: it never executes and never ticks. Slot 0
	// proposes an epoch around op `every` and then keeps completing
	// operations against the stuck epoch.
	for k := 0; k < 6*every; k++ {
		u.Execute(0, types.Inc(1))
	}
	ts := u.TruncStats()
	if ts.Epochs != 0 {
		t.Fatalf("epoch completed without slot 1: %+v", ts)
	}
	if ts.LaggingEpochs != 1 {
		t.Fatalf("LaggingEpochs = %d, want 1 (one stuck epoch, flagged once): %+v",
			ts.LaggingEpochs, ts)
	}
	if got := st.Events(obs.EvTruncLag); got != 1 {
		t.Fatalf("EvTruncLag count %d, want 1", got)
	}
	// The starved slot comes back: idle ticks ack and fold, the epoch
	// completes, and no further lag is charged to it.
	for i := 0; i < 8; i++ {
		for p := 0; p < n; p++ {
			u.TruncTick(p)
		}
	}
	ts = u.TruncStats()
	if ts.Epochs == 0 {
		t.Fatalf("epoch never completed after the slot recovered: %+v", ts)
	}
	if got := st.Events(obs.EvTruncLag); got != ts.LaggingEpochs {
		t.Fatalf("EvTruncLag count %d, want %d (one per lagging epoch)",
			got, ts.LaggingEpochs)
	}
	if got := u.Execute(0, types.Read()).(int64); got != 6*every {
		t.Fatalf("final read %d, want %d", got, 6*every)
	}
}
