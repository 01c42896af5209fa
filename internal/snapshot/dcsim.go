package snapshot

import (
	"fmt"
	"slices"

	"repro/apram/obs"
	"repro/internal/pram"
)

// This file contains the machines of the double-collect snapshot.
// Their purpose is Theorem 8's moral in miniature: the double-collect
// Scan is lock-free but not wait-free, and under an adversarial
// schedule that slips one Update between every pair of collects, the
// scanner runs for ever. The simulator makes that starvation schedule
// deterministic and observable, in contrast to the wait-free
// ScanMachine, which finishes in exactly n²+n+3 accesses no matter
// what the scheduler does. The native DoubleCollect steps the same
// machines on atomic registers.

// DCLayout places n double-collect cells in memory: process p's cell
// is one register, owned by p.
type DCLayout struct {
	Base int
	N    int
}

// AfekLayout places the Afek et al. snapshot's cells, which sit where
// the double collect's do.
type AfekLayout = DCLayout

// Reg returns the register holding process p's cell.
func (l DCLayout) Reg(p int) int { return l.Base + p }

// Install initializes the cells and assigns owners.
func (l DCLayout) Install(m pram.Memory) {
	zero := &seqCell{}
	for p := 0; p < l.N; p++ {
		m.Init(l.Reg(p), zero)
		m.SetOwner(l.Reg(p), p)
	}
}

// seqCell is one process's register in the double-collect and Afek
// snapshots: a payload with a per-process sequence number, plus (for
// Afek) the view embedded at update time. Cells are immutable once
// written.
type seqCell struct {
	Seq  uint64
	Val  any
	View []any // Afek only
}

// sameSeqs reports whether two collects saw the same sequence numbers.
func sameSeqs(a, b []*seqCell) bool {
	for q := range a {
		if a[q].Seq != b[q].Seq {
			return false
		}
	}
	return true
}

// cellValues returns a collect's payloads, nil for never-written cells.
func cellValues(cs []*seqCell) []any {
	out := make([]any, len(cs))
	for q, c := range cs {
		if c.Seq != 0 {
			out[q] = c.Val
		}
	}
	return out
}

// DCUpdateMachine performs a queue of double-collect updates for one
// process, one write per update.
type DCUpdateMachine struct {
	proc  int
	lay   DCLayout
	queue []any
	seq   uint64
}

// NewDCUpdateMachine returns an updater for process proc with each
// value in script enqueued.
func NewDCUpdateMachine(proc int, lay DCLayout, script []any) *DCUpdateMachine {
	return &DCUpdateMachine{proc: proc, lay: lay, queue: append([]any(nil), script...)}
}

// Enqueue appends an update of the process's element to v.
func (mc *DCUpdateMachine) Enqueue(v any) { mc.queue = append(mc.queue, v) }

// Done reports whether every enqueued update is written.
func (mc *DCUpdateMachine) Done() bool { return len(mc.queue) == 0 }

// Completed returns the number of updates written (pram.Progress).
func (mc *DCUpdateMachine) Completed() int { return int(mc.seq) }

// Clone returns an independent copy.
func (mc *DCUpdateMachine) Clone() pram.Machine {
	cp := *mc
	cp.queue = slices.Clone(mc.queue)
	return &cp
}

// Step writes the next enqueued value with a fresh sequence number.
func (mc *DCUpdateMachine) Step(m pram.Memory) {
	if mc.Done() {
		panic("snapshot: Step after Done")
	}
	mc.seq++
	m.Write(mc.proc, mc.lay.Reg(mc.proc), &seqCell{Seq: mc.seq, Val: mc.queue[0]})
	mc.queue = slices.Delete(mc.queue, 0, 1) // keeps the backing array
}

// collector is the collect loop the double-collect and Afek scanners
// share: a queue of scans, each collecting all n cells again and again,
// one read per Step, and comparing each collect with the one before.
type collector struct {
	proc int
	lay  DCLayout

	pending   int        // enqueued scans not yet finished
	completed int        // finished scans
	prev      []*seqCell // previous collect of the scan in progress
	cur       []*seqCell
	collected bool // prev holds a collect of the scan in progress
	i         int  // next cell to read in the current collect
	result    []any

	// probe, when set, receives the scanner's structural events: an
	// obs.EvRetry per dirty collect pair, and for Afek an obs.EvHelp
	// per borrowed view.
	probe obs.Probe
}

func newCollector(proc int, lay DCLayout) collector {
	return collector{proc: proc, lay: lay, prev: make([]*seqCell, lay.N), cur: make([]*seqCell, lay.N)}
}

// Enqueue appends another Scan.
func (c *collector) Enqueue() { c.pending++ }

// Done reports whether every enqueued scan completed.
func (c *collector) Done() bool { return c.pending == 0 }

// Completed returns the number of finished scans (pram.Progress).
func (c *collector) Completed() int { return c.completed }

// Instrument attaches a probe for the scanner's events. Clones share
// it.
func (c *collector) Instrument(p obs.Probe) { c.probe = p }

// Result returns the view of the latest completed scan. It panics
// before Done.
func (c *collector) Result() []any {
	if !c.Done() {
		panic("snapshot: Result before Done")
	}
	return c.result
}

func (c *collector) clone() collector {
	cp := *c
	cp.prev = slices.Clone(c.prev)
	cp.cur = slices.Clone(c.cur)
	cp.result = slices.Clone(c.result)
	return cp
}

// read performs the current collect's next read. It reports whether
// the read completed a collect that prev's can be compared with.
func (c *collector) read(m pram.Memory) bool {
	if c.Done() {
		panic("snapshot: Step after Done")
	}
	c.cur[c.i] = m.Read(c.proc, c.lay.Reg(c.i)).(*seqCell)
	if c.i++; c.i < c.lay.N {
		return false
	}
	c.i = 0
	if !c.collected {
		c.again()
		return false
	}
	return true
}

// again keeps the completed collect for comparison with the next.
func (c *collector) again() {
	copy(c.prev, c.cur)
	c.collected = true
}

// retry reports a dirty collect pair and collects again.
func (c *collector) retry() {
	if c.probe != nil {
		c.probe.Event(c.proc, obs.EvRetry)
	}
	c.again()
}

// finish completes the scan in progress with view.
func (c *collector) finish(view []any) {
	c.result, c.collected = view, false
	c.pending--
	c.completed++
}

// DCScanMachine performs a queue of double-collect Scans for one
// process: each repeatedly collects all n cells and finishes only when
// two consecutive collects carry identical sequence numbers.
type DCScanMachine struct {
	collector
	retries int
}

// NewDCScanMachine returns a scanner for process proc with one Scan
// enqueued.
func NewDCScanMachine(proc int, lay DCLayout) *DCScanMachine {
	mc := &DCScanMachine{collector: newCollector(proc, lay)}
	mc.Enqueue()
	return mc
}

// Retries returns the number of failed collect pairs so far, over
// every scan the machine has run.
func (mc *DCScanMachine) Retries() int { return mc.retries }

// Clone returns an independent copy.
func (mc *DCScanMachine) Clone() pram.Machine {
	cp := *mc
	cp.collector = mc.clone()
	return &cp
}

// Step reads the next cell of the current collect; at the end of a
// collect it either finishes the scan (clean pair) or starts another
// collect.
func (mc *DCScanMachine) Step(m pram.Memory) {
	if !mc.read(m) {
		return
	}
	if sameSeqs(mc.prev, mc.cur) {
		mc.finish(cellValues(mc.cur))
		return
	}
	mc.retries++
	mc.retry()
}

// String aids debugging.
func (mc *DCScanMachine) String() string {
	return fmt.Sprintf("DCScan{proc %d, retries %d, pending %d}", mc.proc, mc.retries, mc.pending)
}
