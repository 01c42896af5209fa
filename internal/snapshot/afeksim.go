package snapshot

import (
	"slices"

	"repro/apram/obs"
	"repro/internal/pram"
)

// Machines of the Afek et al. snapshot, completing the E7 comparison:
// under the same update-between-collects adversary that starves the
// double-collect scan for ever, the Afek scan finishes in a bounded
// number of its own steps — after observing some process move twice
// it borrows that process's embedded view. This is the related-work
// algorithm's wait-freedom made measurable next to ours. The native
// Afek steps the same machines on atomic registers.

// AfekScanMachine performs a queue of Afek scans for one process:
// repeated collects, one cell read per Step, borrowing an embedded
// view from any process observed to move twice.
type AfekScanMachine struct {
	collector
	moved    []bool // processes seen to move during the scan in progress
	borrowed bool   // the latest result came from an embedded view
}

func newAfekScanMachine(proc int, lay AfekLayout) *AfekScanMachine {
	return &AfekScanMachine{collector: newCollector(proc, lay), moved: make([]bool, lay.N)}
}

// NewAfekScanMachine returns a scanner for process proc with one scan
// enqueued.
func NewAfekScanMachine(proc int, lay AfekLayout) *AfekScanMachine {
	mc := newAfekScanMachine(proc, lay)
	mc.Enqueue()
	return mc
}

// Borrowed reports whether the latest result came from an embedded
// view.
func (mc *AfekScanMachine) Borrowed() bool { return mc.borrowed && mc.Done() }

// Clone returns an independent copy.
func (mc *AfekScanMachine) Clone() pram.Machine {
	cp := *mc
	cp.collector = mc.clone()
	cp.moved = slices.Clone(mc.moved)
	return &cp
}

// Step reads the next cell of the current collect and resolves the
// scan at collect boundaries.
func (mc *AfekScanMachine) Step(m pram.Memory) {
	if !mc.read(m) {
		return
	}
	clean := true
	for q, c := range mc.cur {
		if c.Seq == mc.prev[q].Seq {
			continue
		}
		clean = false
		if mc.moved[q] {
			// q completed a whole update inside this scan, so its
			// embedded view was taken inside this scan too: borrow it.
			if mc.probe != nil {
				mc.probe.Event(mc.proc, obs.EvHelp)
			}
			mc.end(slices.Clone(c.View), true)
			return
		}
		mc.moved[q] = true
	}
	if clean {
		mc.end(cellValues(mc.cur), false)
		return
	}
	mc.retry()
}

// end completes the scan in progress with view.
func (mc *AfekScanMachine) end(view []any, borrowed bool) {
	clear(mc.moved)
	mc.borrowed = borrowed
	mc.finish(view)
}

// AfekUpdateMachine performs a queue of updates for one process, each
// an embedded scan followed by one write.
type AfekUpdateMachine struct {
	proc     int
	lay      AfekLayout
	queue    []any
	seq      uint64
	scanner  *AfekScanMachine // runs each update's embedded scan
	scanning bool             // the head update's scan has started
}

// NewAfekUpdateMachine returns an updater for process proc with each
// value in script enqueued.
func NewAfekUpdateMachine(proc int, lay AfekLayout, script []any) *AfekUpdateMachine {
	return &AfekUpdateMachine{
		proc: proc, lay: lay,
		queue:   append([]any(nil), script...),
		scanner: newAfekScanMachine(proc, lay),
	}
}

// Enqueue appends an update of the process's element to v.
func (mc *AfekUpdateMachine) Enqueue(v any) { mc.queue = append(mc.queue, v) }

// Done reports whether every enqueued update is written.
func (mc *AfekUpdateMachine) Done() bool { return len(mc.queue) == 0 }

// Completed returns finished updates (pram.Progress).
func (mc *AfekUpdateMachine) Completed() int { return int(mc.seq) }

// Instrument attaches a probe for the embedded scans' events. Clones
// share it.
func (mc *AfekUpdateMachine) Instrument(p obs.Probe) { mc.scanner.Instrument(p) }

// Clone returns an independent copy.
func (mc *AfekUpdateMachine) Clone() pram.Machine {
	cp := *mc
	cp.queue = slices.Clone(mc.queue)
	cp.scanner = mc.scanner.Clone().(*AfekScanMachine)
	return &cp
}

// Step advances the embedded scan or performs the final write.
func (mc *AfekUpdateMachine) Step(m pram.Memory) {
	if mc.Done() {
		panic("snapshot: Step after Done")
	}
	if !mc.scanning {
		mc.scanning = true
		mc.scanner.Enqueue()
	}
	if !mc.scanner.Done() {
		mc.scanner.Step(m) // the write happens on a later step
		return
	}
	mc.seq++
	m.Write(mc.proc, mc.lay.Reg(mc.proc), &seqCell{Seq: mc.seq, Val: mc.queue[0], View: mc.scanner.Result()})
	mc.queue = slices.Delete(mc.queue, 0, 1) // keeps the backing array
	mc.scanning = false
}
