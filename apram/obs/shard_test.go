package obs

import "testing"

// TestShardOffsetsSlots: the wrapper lands every callback on the
// shifted slot of the wrapped probe, composes offsets, and keeps the
// nil fast path.
func TestShardOffsetsSlots(t *testing.T) {
	st := NewStats(6)
	p := Shard(st, 2)
	p.RegReads(0, 3)
	p.RegWrites(1, 4)
	p.Event(0, EvPublish)
	p.OpDone(1, OpExecute)
	sum := st.Snapshot()
	if got := sum.PerSlot[2].Reads; got != 3 {
		t.Fatalf("slot 2 reads %d, want 3", got)
	}
	if got := sum.PerSlot[3].Writes; got != 4 {
		t.Fatalf("slot 3 writes %d, want 4", got)
	}
	if got := st.EventsBy(2, EvPublish); got != 1 {
		t.Fatalf("slot 2 publish events %d, want 1", got)
	}
	for slot := 0; slot < 2; slot++ {
		if s := sum.PerSlot[slot]; s.Reads != 0 || s.Writes != 0 {
			t.Fatalf("unshifted slot %d touched: %+v", slot, s)
		}
	}

	// The span, batch and epoch callbacks shift the same way.
	var traced []Record
	tp := Shard(Trace(func(r Record) { traced = append(traced, r) }), 2)
	tp.OpBegin(0, OpExecute)
	tp.BatchDone(1, 5)
	tp.EpochBegin(0)
	tp.EpochEnd(1)
	if len(traced) != 4 || traced[1].Kind != KindBatch || traced[1].N != 5 {
		t.Fatalf("traced %+v, want begin, batch of 5, epoch begin, epoch end", traced)
	}
	for i, r := range traced {
		if want := 2 + i%2; r.Slot != want {
			t.Fatalf("record %d on slot %d, want %d", i, r.Slot, want)
		}
	}

	// Composition: Shard(Shard(st, 2), 2) shifts by 4 total.
	pp := Shard(p, 2)
	pp.RegReads(0, 9)
	if got := st.Snapshot().PerSlot[4].Reads; got != 9 {
		t.Fatalf("composed offset: slot 4 reads %d, want 9", got)
	}

	if Shard(nil, 3) != nil {
		t.Fatal("Shard(nil) must stay nil to preserve the fast path")
	}
}
