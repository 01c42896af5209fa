package lincheck

import (
	"sync"
	"testing"

	"repro/internal/history"
	"repro/internal/spec"
	"repro/internal/types"
)

// mk builds an op quickly.
func mk(id, proc int, name string, arg, resp any, start, end int64) history.Op {
	return history.Op{ID: id, Proc: proc, Name: name, Arg: arg, Resp: resp, Start: start, End: end}
}

func TestSequentialLegalHistory(t *testing.T) {
	h := history.History{Ops: []history.Op{
		mk(0, 0, types.OpInc, int64(5), nil, 1, 2),
		mk(1, 1, types.OpRead, nil, int64(5), 3, 4),
		mk(2, 0, types.OpDec, int64(2), nil, 5, 6),
		mk(3, 1, types.OpRead, nil, int64(3), 7, 8),
	}}
	r, err := Check(types.Counter{}, h)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Ok {
		t.Fatal("legal sequential history rejected")
	}
	if len(r.Witness) != 4 {
		t.Fatalf("witness length %d", len(r.Witness))
	}
}

func TestSequentialIllegalHistory(t *testing.T) {
	h := history.History{Ops: []history.Op{
		mk(0, 0, types.OpInc, int64(5), nil, 1, 2),
		mk(1, 1, types.OpRead, nil, int64(99), 3, 4), // wrong response
	}}
	r, err := Check(types.Counter{}, h)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ok {
		t.Fatal("illegal history accepted")
	}
}

// TestConcurrentReorderNeeded: a read overlapping an inc may see
// either value; both must be accepted.
func TestConcurrentReorderNeeded(t *testing.T) {
	for _, seen := range []int64{0, 5} {
		h := history.History{Ops: []history.Op{
			mk(0, 0, types.OpInc, int64(5), nil, 1, 10),
			mk(1, 1, types.OpRead, nil, seen, 2, 3), // inside inc's interval
		}}
		r, err := Check(types.Counter{}, h)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Ok {
			t.Errorf("read=%d during inc rejected; both orders are legal", seen)
		}
	}
}

// TestRealTimeOrderEnforced: a read strictly after an inc must see it.
func TestRealTimeOrderEnforced(t *testing.T) {
	h := history.History{Ops: []history.Op{
		mk(0, 0, types.OpInc, int64(5), nil, 1, 2),
		mk(1, 1, types.OpRead, nil, int64(0), 3, 4), // stale read, not concurrent
	}}
	r, err := Check(types.Counter{}, h)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ok {
		t.Fatal("stale non-concurrent read accepted: real-time order not enforced")
	}
}

// TestQueueNewOldInversion: the classic non-linearizable queue
// history — two sequential enqueues, then two sequential dequeues that
// return them in reverse order.
func TestQueueNewOldInversion(t *testing.T) {
	h := history.History{Ops: []history.Op{
		mk(0, 0, types.OpEnq, "a", nil, 1, 2),
		mk(1, 0, types.OpEnq, "b", nil, 3, 4),
		mk(2, 1, types.OpDeq, nil, "b", 5, 6),
		mk(3, 1, types.OpDeq, nil, "a", 7, 8),
	}}
	r, err := Check(types.Queue{}, h)
	if err != nil {
		t.Fatal(err)
	}
	if r.Ok {
		t.Fatal("LIFO behaviour accepted as a linearizable FIFO queue")
	}
}

// TestQueueConcurrentEnqueuesEitherOrder: concurrent enqueues may
// linearize either way.
func TestQueueConcurrentEnqueuesEitherOrder(t *testing.T) {
	for _, first := range []string{"a", "b"} {
		second := "b"
		if first == "b" {
			second = "a"
		}
		h := history.History{Ops: []history.Op{
			mk(0, 0, types.OpEnq, "a", nil, 1, 10),
			mk(1, 1, types.OpEnq, "b", nil, 2, 9),
			mk(2, 2, types.OpDeq, nil, first, 11, 12),
			mk(3, 2, types.OpDeq, nil, second, 13, 14),
		}}
		r, err := Check(types.Queue{}, h)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Ok {
			t.Errorf("dequeue order %s,%s rejected for concurrent enqueues", first, second)
		}
	}
}

func TestWitnessIsLegal(t *testing.T) {
	h := history.History{Ops: []history.Op{
		mk(0, 0, types.OpInc, int64(1), nil, 1, 20),
		mk(1, 1, types.OpInc, int64(2), nil, 2, 19),
		mk(2, 2, types.OpRead, nil, int64(3), 3, 18),
	}}
	r, err := Check(types.Counter{}, h)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Ok {
		t.Fatal("rejected")
	}
	if err := CheckSequential(types.Counter{}, r.Witness); err != nil {
		t.Fatalf("witness is not legal: %v", err)
	}
}

func TestMalformedHistoryRejected(t *testing.T) {
	h := history.History{Ops: []history.Op{
		mk(0, 0, types.OpInc, int64(1), nil, 1, 10),
		mk(1, 0, types.OpInc, int64(2), nil, 5, 15), // same proc, overlapping
	}}
	if _, err := Check(types.Counter{}, h); err == nil {
		t.Fatal("overlapping same-process ops accepted")
	}
}

func TestTooManyOpsRejected(t *testing.T) {
	var ops []history.Op
	for i := 0; i < MaxOps+1; i++ {
		ops = append(ops, mk(i, i, types.OpInc, int64(1), nil, int64(2*i+1), int64(2*i+2)))
	}
	if _, err := Check(types.Counter{}, history.History{Ops: ops}); err == nil {
		t.Fatal("oversized history accepted")
	}
}

func TestCheckSequentialDetectsBadResponse(t *testing.T) {
	ops := []history.Op{
		mk(0, 0, types.OpInc, int64(1), nil, 1, 2),
		mk(1, 0, types.OpRead, nil, int64(2), 3, 4),
	}
	if err := CheckSequential(types.Counter{}, ops); err == nil {
		t.Fatal("bad response not detected")
	}
}

// TestRecorderIntegration: drive a mutex-guarded counter from many
// goroutines through a Recorder and verify the resulting history is
// linearizable (a correct reference implementation must pass).
func TestRecorderIntegration(t *testing.T) {
	var rec history.Recorder
	var mu sync.Mutex
	var val int64
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				if (p+k)%2 == 0 {
					rec.Invoke(p, types.OpInc, int64(1), func() any {
						mu.Lock()
						defer mu.Unlock()
						val++
						return nil
					})
				} else {
					rec.Invoke(p, types.OpRead, nil, func() any {
						mu.Lock()
						defer mu.Unlock()
						return val
					})
				}
			}
		}(p)
	}
	wg.Wait()
	h := rec.History()
	if len(h.Ops) != 12 {
		t.Fatalf("recorded %d ops", len(h.Ops))
	}
	r, err := Check(types.Counter{}, h)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Ok {
		t.Fatal("correct locked counter produced a non-linearizable history")
	}
}

// TestBrokenImplementationCaught: a racy counter (no lock) under heavy
// contention should eventually produce a non-linearizable history.
// The test retries a few times since the race is probabilistic; if the
// race never fires we skip rather than flake.
func TestBrokenImplementationCaught(t *testing.T) {
	for attempt := 0; attempt < 50; attempt++ {
		var rec history.Recorder
		var val int64 // racy on purpose — incremented without synchronization
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for k := 0; k < 2; k++ {
					rec.Invoke(p, types.OpInc, int64(1), func() any {
						v := val
						for i := 0; i < 10; i++ {
							_ = i // widen the race window
						}
						val = v + 1
						return nil
					})
				}
			}(p)
		}
		wg.Wait()
		var rec2ops []history.Op
		rec2ops = append(rec2ops, rec.History().Ops...)
		// Append a final read observing the (possibly lost-update)
		// total.
		rec2ops = append(rec2ops, mk(100, 5, types.OpRead, nil, val, 1<<40, 1<<40+1))
		r, err := Check(types.Counter{}, history.History{Ops: rec2ops})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Ok {
			return // race caught: lost update is not linearizable
		}
	}
	t.Skip("data race never produced a lost update on this machine")
}

func TestExploredCounter(t *testing.T) {
	h := history.History{Ops: []history.Op{
		mk(0, 0, types.OpInc, int64(1), nil, 1, 2),
	}}
	r, err := Check(types.Counter{}, h)
	if err != nil {
		t.Fatal(err)
	}
	if r.Explored < 1 {
		t.Error("explored counter not maintained")
	}
}

func TestStateKeyCollisionResistance(t *testing.T) {
	// Two different GSet histories that pass through states whose keys
	// must differ.
	s := types.GSet{}
	a, _ := spec.Replay(s, []spec.Inv{types.Add("x,y")})
	b, _ := spec.Replay(s, []spec.Inv{types.Add("x"), types.Add("y")})
	if s.Key(a) == s.Key(b) {
		t.Fatalf("distinct states share the key %q", s.Key(a))
	}
}

// TestKeyCollisionKeepsWitness: the checkers memoize failed
// (mask, spec.Key) pairs, so two distinct states sharing a key would
// let a dead branch prune a live one. Both orders below reach the
// same mask: add(a), add(b), clear, add("a,b") ends in {"a,b"}, whose
// members() is wrong, and the witness add("a,b"), clear, add(a),
// add(b) ends in {"a","b"}. A comma-joined set key made the two
// collide and rejected this linearizable history.
func TestKeyCollisionKeepsWitness(t *testing.T) {
	h := history.History{Ops: []history.Op{
		mk(0, 0, types.OpAdd, "a", nil, 1, 10),
		mk(1, 1, types.OpAdd, "b", nil, 1, 10),
		mk(2, 2, types.OpClear, nil, nil, 1, 10),
		mk(3, 3, types.OpAdd, "a,b", nil, 1, 10),
		mk(4, 0, types.OpMembers, nil, []string{"a", "b"}, 11, 12),
	}}
	r, err := Check(types.GSet{}, h)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Ok {
		t.Fatal("linearizable history rejected")
	}
	pr, err := CheckPartial(types.GSet{}, h, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Ok {
		t.Fatal("linearizable history rejected by CheckPartial")
	}
}
