package obs

import (
	"fmt"
	"sync/atomic"
)

// slotStats is one process slot's counter block. Only operations
// performed by the slot increment it — the probe contract mirrors the
// registers' single-writer discipline — so increments never contend;
// the atomics exist for the benefit of concurrent aggregation
// (Snapshot) and the race detector. The block is several cache lines
// long, which keeps distinct slots' hot counters apart.
type slotStats struct {
	reads  atomic.Uint64
	writes atomic.Uint64
	events [NumEvents]atomic.Uint64
	ops    [NumOps]atomic.Uint64
	steps  [NumOps]atomic.Uint64 // register accesses attributed to each op kind

	// mark is the slot's access total at its previous OpDone. It is
	// touched only by the slot's own goroutine (never by aggregation),
	// so it needs no atomicity.
	mark uint64

	_ [48]byte // round the block away from the next slot's hot fields
}

// Stats is the lock-free cost-model Probe: per-slot single-writer
// counters of register reads and writes, events, operations and the
// steps attributed to them, aggregated by a snapshot-style read-only
// sweep. All methods are wait-free. The zero value is unusable; call
// NewStats.
type Stats struct {
	slots []slotStats
}

// NewStats returns a Stats for objects with n process slots. Callbacks
// for slots outside [0,n) panic — they indicate the probe was attached
// to an object with more slots than it was sized for.
func NewStats(n int) *Stats {
	if n <= 0 {
		panic("obs: need at least one slot")
	}
	return &Stats{slots: make([]slotStats, n)}
}

// Slots returns the number of process slots.
func (s *Stats) Slots() int { return len(s.slots) }

func (s *Stats) slot(i int) *slotStats {
	if i < 0 || i >= len(s.slots) {
		panic(fmt.Sprintf("obs: slot %d out of range [0,%d)", i, len(s.slots)))
	}
	return &s.slots[i]
}

// RegReads records n register reads by slot.
func (s *Stats) RegReads(slot, n int) { s.slot(slot).reads.Add(uint64(n)) }

// RegWrites records n register writes by slot.
func (s *Stats) RegWrites(slot, n int) { s.slot(slot).writes.Add(uint64(n)) }

// Event records one structural event on slot.
func (s *Stats) Event(slot int, e Event) { s.slot(slot).events[e].Add(1) }

// OpDone records an operation completion by slot, attributing to it
// every register access the slot reported since its previous OpDone.
func (s *Stats) OpDone(slot int, op Op) {
	sl := s.slot(slot)
	total := sl.reads.Load() + sl.writes.Load()
	steps := total - sl.mark
	sl.mark = total
	sl.ops[op].Add(1)
	sl.steps[op].Add(steps)
}

// OpBegin, BatchDone, EpochBegin and EpochEnd are no-ops: span edges
// and batch sizes are not register accesses. An OpBegin needs no mark
// because OpDone attributes from the previous OpDone.
func (s *Stats) OpBegin(int, Op)    {}
func (s *Stats) BatchDone(int, int) {}
func (s *Stats) EpochBegin(int)     {}
func (s *Stats) EpochEnd(int)       {}

// Reads returns the aggregate register read count across all slots.
func (s *Stats) Reads() uint64 {
	var t uint64
	for i := range s.slots {
		t += s.slots[i].reads.Load()
	}
	return t
}

// Writes returns the aggregate register write count across all slots.
func (s *Stats) Writes() uint64 {
	var t uint64
	for i := range s.slots {
		t += s.slots[i].writes.Load()
	}
	return t
}

// Ops returns the aggregate completion count for op.
func (s *Stats) Ops(op Op) uint64 {
	var t uint64
	for i := range s.slots {
		t += s.slots[i].ops[op].Load()
	}
	return t
}

// EventsBy returns slot's occurrence count for e.
func (s *Stats) EventsBy(slot int, e Event) uint64 {
	return s.slot(slot).events[e].Load()
}

// AccessesBy returns slot's register reads plus writes.
func (s *Stats) AccessesBy(slot int) uint64 {
	sl := s.slot(slot)
	return sl.reads.Load() + sl.writes.Load()
}

// Events returns the aggregate occurrence count for e.
func (s *Stats) Events(e Event) uint64 {
	var t uint64
	for i := range s.slots {
		t += s.slots[i].events[e].Load()
	}
	return t
}

// OpSummary aggregates one operation kind.
type OpSummary struct {
	// Count is how many operations of this kind completed.
	Count uint64 `json:"count"`
	// Steps is the total register accesses attributed to them.
	Steps uint64 `json:"steps"`
	// MeanSteps is Steps/Count (0 when Count is 0).
	MeanSteps float64 `json:"mean_steps"`
}

// SlotSummary is one slot's aggregated view.
type SlotSummary struct {
	// Slot is the process slot index.
	Slot int `json:"slot"`
	// Reads and Writes are the slot's register access totals.
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
	// Ops is the slot's completion count per op name.
	Ops map[string]uint64 `json:"ops,omitempty"`
	// Events is the slot's occurrence count per event name (only
	// events that occurred appear).
	Events map[string]uint64 `json:"events,omitempty"`
}

// Summary is a consistent-enough aggregation of a Stats: each counter
// is read atomically, so totals are exact whenever the slots are
// quiescent, and never torn. While slots are actively working, a
// summary may split an in-flight operation (its register accesses
// visible, its OpDone not yet), which is inherent to wait-free
// aggregation — the alternative would be a lock on the hot path.
type Summary struct {
	// Slots is the number of process slots.
	Slots int `json:"slots"`
	// Reads and Writes are aggregate register access totals.
	Reads  uint64 `json:"reads"`
	Writes uint64 `json:"writes"`
	// Events maps event name to aggregate occurrence count (only
	// events that occurred appear).
	Events map[string]uint64 `json:"events,omitempty"`
	// Ops maps op name to its aggregate summary (only ops that
	// completed appear).
	Ops map[string]OpSummary `json:"ops,omitempty"`
	// PerSlot holds each slot's own totals; summing them reproduces
	// the aggregate fields exactly.
	PerSlot []SlotSummary `json:"per_slot"`
}

// Snapshot aggregates the statistics into a Summary. It is read-only,
// wait-free, and safe to call concurrently with ongoing operations.
func (s *Stats) Snapshot() Summary {
	sum := Summary{
		Slots:  len(s.slots),
		Events: map[string]uint64{},
		Ops:    map[string]OpSummary{},
	}
	var opCount, opSteps [NumOps]uint64
	for i := range s.slots {
		sl := &s.slots[i]
		ss := SlotSummary{Slot: i, Reads: sl.reads.Load(), Writes: sl.writes.Load()}
		sum.Reads += ss.Reads
		sum.Writes += ss.Writes
		for e := Event(0); e < NumEvents; e++ {
			if c := sl.events[e].Load(); c > 0 {
				sum.Events[e.String()] += c
				if ss.Events == nil {
					ss.Events = map[string]uint64{}
				}
				ss.Events[e.String()] = c
			}
		}
		for op := Op(0); op < NumOps; op++ {
			if c := sl.ops[op].Load(); c > 0 {
				if ss.Ops == nil {
					ss.Ops = map[string]uint64{}
				}
				ss.Ops[op.String()] = c
				opCount[op] += c
				opSteps[op] += sl.steps[op].Load()
			}
		}
		sum.PerSlot = append(sum.PerSlot, ss)
	}
	for op := Op(0); op < NumOps; op++ {
		if opCount[op] == 0 {
			continue
		}
		sum.Ops[op.String()] = OpSummary{
			Count:     opCount[op],
			Steps:     opSteps[op],
			MeanSteps: float64(opSteps[op]) / float64(opCount[op]),
		}
	}
	return sum
}

// String renders the headline totals.
func (sum Summary) String() string {
	return fmt.Sprintf("obs: %d slots, %d reads, %d writes, %d ops",
		sum.Slots, sum.Reads, sum.Writes, sum.opsTotal())
}

func (sum Summary) opsTotal() uint64 {
	var t uint64
	for _, o := range sum.Ops {
		t += o.Count
	}
	return t
}
