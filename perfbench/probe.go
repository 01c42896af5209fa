package main

import (
	"sync/atomic"

	"repro/apram/obs"
)

// probe is the traced run's observer, attached through apram.WithProbe.
// It timestamps the program's existing OpBatch and OpExecute edges and
// truncation-epoch edges, marks executes that rebuilt their
// linearization, and counts register accesses and events. Each slot's
// record is written only by the goroutine driving that slot, so the
// probe needs no locks; it is read after the server has closed.
type probe struct {
	// on gates recording to the timed phase.
	on    atomic.Bool
	slots []slotTrace
}

type interval struct{ start, end int64 }

type execSpan struct {
	interval
	rebuilt bool
}

type slotTrace struct {
	batchAt, execAt, epochAt int64
	rebuilt                  bool

	// Span buffers, off the heap.
	batches []interval
	execs   []execSpan
	epochs  []interval

	events          [obs.NumEvents]uint64
	reads, writes   uint64
	batchOps, flush uint64
	// pad keeps neighbouring slots' records off one cache line.
	_ [64]byte
}

// newProbe sizes each slot's span buffers for perSlot spans.
func newProbe(slots, perSlot int) (*probe, error) {
	p := &probe{slots: make([]slotTrace, slots)}
	for i := range p.slots {
		s := &p.slots[i]
		var err error
		if s.batches, err = offHeap[interval](perSlot); err != nil {
			return nil, err
		}
		if s.execs, err = offHeap[execSpan](perSlot); err != nil {
			return nil, err
		}
		if s.epochs, err = offHeap[interval](perSlot); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *probe) RegReads(slot, n int) {
	if p.on.Load() {
		p.slots[slot].reads += uint64(n)
	}
}

func (p *probe) RegWrites(slot, n int) {
	if p.on.Load() {
		p.slots[slot].writes += uint64(n)
	}
}

func (p *probe) Event(slot int, e obs.Event) {
	if !p.on.Load() {
		return
	}
	s := &p.slots[slot]
	s.events[e]++
	if e == obs.EvLinRebuild {
		s.rebuilt = true
	}
}

func (p *probe) OpBegin(slot int, op obs.Op) {
	if !p.on.Load() {
		return
	}
	s := &p.slots[slot]
	switch op {
	case obs.OpBatch:
		s.batchAt = now()
	case obs.OpExecute:
		s.execAt, s.rebuilt = now(), false
	}
}

// OpDone closes a span whose begin edge fell inside the timed phase.
func (p *probe) OpDone(slot int, op obs.Op) {
	if !p.on.Load() {
		return
	}
	s := &p.slots[slot]
	switch op {
	case obs.OpBatch:
		if s.batchAt > 0 {
			push(&s.batches, interval{s.batchAt, now()})
			s.batchAt = 0
		}
	case obs.OpExecute:
		if s.execAt > 0 {
			push(&s.execs, execSpan{interval{s.execAt, now()}, s.rebuilt})
			s.execAt = 0
		}
	}
}

func (p *probe) BatchDone(slot, size int) {
	if p.on.Load() {
		s := &p.slots[slot]
		s.batchOps += uint64(size)
		s.flush++
	}
}

func (p *probe) EpochBegin(slot int) {
	if p.on.Load() {
		p.slots[slot].epochAt = now()
	}
}

func (p *probe) EpochEnd(slot int) {
	if !p.on.Load() {
		return
	}
	s := &p.slots[slot]
	if s.epochAt > 0 {
		push(&s.epochs, interval{s.epochAt, now()})
		s.epochAt = 0
	}
}
