package obs

import (
	"sync"
	"testing"
)

// TestShardUnevenSlotRanges: a shared probe fronting shards of
// UNEVEN sizes — offsets are arbitrary, not multiples of one n — must
// land every callback in its shard's own slot range with no overlap.
// This pins the slot-range arithmetic the sharded construction relies
// on when shard sizes diverge.
func TestShardUnevenSlotRanges(t *testing.T) {
	// Three shards with 1, 3, and 2 slots over a 6-slot probe.
	sizes := []int{1, 3, 2}
	total := 6
	st := NewStats(total)
	offset := 0
	views := make([]Probe, len(sizes))
	ranges := make([][2]int, len(sizes))
	for i, sz := range sizes {
		views[i] = Shard(st, offset)
		ranges[i] = [2]int{offset, offset + sz}
		offset += sz
	}
	// Each shard reports a distinctive count on every one of its slots.
	for i, v := range views {
		for s := 0; s < sizes[i]; s++ {
			v.RegReads(s, (i+1)*100+s)
			v.OpDone(s, OpExecute)
			v.EpochBegin(s)
			v.EpochEnd(s)
		}
	}
	sum := st.Snapshot()
	for i, r := range ranges {
		for s := r[0]; s < r[1]; s++ {
			want := uint64((i+1)*100 + (s - r[0]))
			if got := sum.PerSlot[s].Reads; got != want {
				t.Errorf("slot %d reads = %d, want %d", s, got, want)
			}
			if got := sum.PerSlot[s].Ops[OpExecute.String()]; got != 1 {
				t.Errorf("slot %d execute ops = %d, want 1", s, got)
			}
		}
	}
	// The last shard's top slot is the probe's top slot: no off-by-one
	// headroom is left, so an offset bug would have panicked above.
	if top := ranges[len(ranges)-1][1]; top != total {
		t.Fatalf("ranges don't tile the probe: top %d, want %d", top, total)
	}
}

// TestMultiFanOutConcurrent: Multi forwards every callback to every
// member in registration order, and stays safe when distinct slots
// probe concurrently (the per-slot single-writer discipline is the
// only serialization). Run under -race this doubles as the data-race
// gate for the fan-out path.
func TestMultiFanOutConcurrent(t *testing.T) {
	const slots, per = 4, 5000
	a, b := NewStats(slots), NewStats(slots)
	rec := NewRecorder(slots)
	m := Multi(a, rec, b)
	var wg sync.WaitGroup
	for p := 0; p < slots; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.OpBegin(p, OpExecute)
				m.RegReads(p, 2)
				m.RegWrites(p, 1)
				m.OpDone(p, OpExecute)
				if i%100 == 0 {
					m.Event(p, EvPublish)
					m.EpochBegin(p)
					m.EpochEnd(p)
				}
			}
		}(p)
	}
	wg.Wait()
	for name, st := range map[string]*Stats{"first": a, "last": b} {
		sum := st.Snapshot()
		if got := sum.Ops[OpExecute.String()].Count; got != slots*per {
			t.Errorf("%s member ops = %d, want %d", name, got, slots*per)
		}
		if sum.Reads != slots*per*2 || sum.Writes != slots*per {
			t.Errorf("%s member accesses = %d/%d, want %d/%d",
				name, sum.Reads, sum.Writes, slots*per*2, slots*per)
		}
	}
	// The recorder member saw the same stream: every slot's surviving
	// ring suffix must strictly alternate matched begins and ends per
	// the recording order (no cross-slot interference).
	for p := 0; p < slots; p++ {
		spans := rec.SlotSpans(p)
		if len(spans) == 0 {
			t.Fatalf("slot %d recorded nothing", p)
		}
		for _, sp := range spans {
			if sp.Slot != p {
				t.Fatalf("slot %d ring holds a span for slot %d", p, sp.Slot)
			}
		}
		for i := 1; i < len(spans); i++ {
			if spans[i].Seq != spans[i-1].Seq+1 {
				t.Fatalf("slot %d ring order broken at %d: seq %d after %d",
					p, i, spans[i].Seq, spans[i-1].Seq)
			}
		}
	}
}

// TestMultiOrdering pins the fan-out order: members observe each
// callback in the order they were passed to Multi — the contract that
// lets a Stats member act as the ground truth for a Recorder member's
// ring in one probe list.
func TestMultiOrdering(t *testing.T) {
	var order []string
	mk := func(name string) Probe {
		return Trace(func(r Record) {
			order = append(order, name+":"+r.Kind.String())
		})
	}
	m := Multi(mk("a"), nil, mk("b"))
	m.OpDone(0, OpExecute)
	m.Event(0, EvPublish)
	want := []string{"a:op", "b:op", "a:event", "b:event"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order[%d] = %s, want %s (full: %v)", i, order[i], want[i], order)
		}
	}
}
