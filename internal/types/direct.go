package types

import (
	"repro/apram/obs"
	"repro/internal/lattice"
	"repro/internal/snapshot"
)

// This file implements the type-specific optimization the paper
// gestures at in the closing remark of Section 5.4: "For any
// particular data type, it should be possible to apply type-specific
// optimizations to discard most of the precedence graph." For the
// counter and the logical clock the entire precedence graph collapses
// into O(n) per-process summaries published through the Section 6
// atomic snapshot — no entries, no linearization graphs, no replay.
// Experiment E11 measures the resulting constant-factor win over the
// generic construction.

// epoch identifies a reset generation: a Lamport pair ordered by
// (Count, Proc). Concurrent resets get the same Count and are ordered
// by process index — exactly the dominance tie-break of Definition 14.
type epoch struct {
	Count uint64
	Proc  int
}

// less orders epochs.
func (e epoch) less(o epoch) bool {
	if e.Count != o.Count {
		return e.Count < o.Count
	}
	return e.Proc < o.Proc
}

// counterCell is one process's published summary: the latest reset it
// knows (epoch and base value) and its own inc/dec contributions since
// that reset.
type counterCell struct {
	Epoch epoch
	Base  int64
	Inc   int64
	Dec   int64
}

// DirectCounter is a wait-free linearizable counter with inc, dec,
// reset and read, built directly on the atomic snapshot: each process
// publishes a counterCell; a read returns the base of the newest epoch
// plus the contributions attached to it. Contributions attached to an
// older epoch are linearized before the reset that started the newer
// one — the same story the universal construction's dominance edges
// tell, at a fraction of the cost.
//
// As everywhere, each process index is driven by at most one goroutine
// at a time.
type DirectCounter struct {
	snap *snapshot.Snapshot
	vl   lattice.Vector
	tag  []uint64      // per-process publication tags
	mine []counterCell // per-process local copy of own cell

	probe   obs.Probe // nil when uninstrumented
	emitOps bool      // report operation completions (false when nested)
}

// NewDirectCounter returns an n-process direct counter.
func NewDirectCounter(n int) *DirectCounter {
	vl := lattice.Vector{N: n}
	return &DirectCounter{
		snap: snapshot.New(n, vl),
		vl:   vl,
		tag:  make([]uint64, n),
		mine: make([]counterCell, n),
	}
}

// Instrument attaches a probe. Register accounting flows from the
// embedded snapshot (Inc/Dec/Reset are two snapshot operations each,
// Read is one); the counter adds operation completions and
// obs.EvEpochRestart events. emitOps false suppresses the completions
// for nested use (the shared coin's counter). Attach before sharing.
func (c *DirectCounter) Instrument(p obs.Probe, emitOps bool) {
	c.probe = p
	c.emitOps = emitOps && p != nil
	c.snap.Instrument(p, false)
}

// N returns the number of process slots.
func (c *DirectCounter) N() int { return c.vl.N }

// collect scans the array and returns the cells plus the newest epoch
// observed.
func (c *DirectCounter) collect(p int) ([]counterCell, epoch) {
	vec := c.snap.ReadMax(p).(lattice.Vec)
	cells := make([]counterCell, 0, len(vec))
	var top epoch // zero value: Count 0, Proc 0 — the initial epoch
	for _, cl := range vec {
		if cl.Tag == 0 {
			continue
		}
		cell := cl.Val.(counterCell)
		cells = append(cells, cell)
		if top.less(cell.Epoch) {
			top = cell.Epoch
		}
	}
	return cells, top
}

// publish stores p's cell.
func (c *DirectCounter) publish(p int, cell counterCell) {
	c.mine[p] = cell
	c.tag[p]++
	c.snap.Update(p, c.vl.Single(p, c.tag[p], cell))
}

// adjust adds delta to p's contribution under the newest epoch.
func (c *DirectCounter) adjust(p int, inc, dec int64) {
	if c.emitOps {
		c.probe.OpBegin(p, obs.OpCounterAdd)
	}
	_, top := c.collect(p)
	cell := c.mine[p]
	if cell.Epoch != top {
		// A newer reset happened: our old contributions are
		// overwritten; restart from the new epoch. We may not know the
		// new base, but we do not need it — only the resetter's cell
		// carries it.
		cell = counterCell{Epoch: top}
		if c.probe != nil {
			c.probe.Event(p, obs.EvEpochRestart)
		}
	}
	cell.Inc += inc
	cell.Dec += dec
	c.publish(p, cell)
	if c.emitOps {
		c.probe.OpDone(p, obs.OpCounterAdd)
	}
}

// Inc adds amount to the counter.
func (c *DirectCounter) Inc(p int, amount int64) { c.adjust(p, amount, 0) }

// Dec subtracts amount from the counter.
func (c *DirectCounter) Dec(p int, amount int64) { c.adjust(p, 0, amount) }

// Reset sets the counter to value, overwriting all earlier operations
// (the paper's reset semantics: reset overwrites everything).
func (c *DirectCounter) Reset(p int, value int64) {
	if c.emitOps {
		c.probe.OpBegin(p, obs.OpCounterReset)
	}
	_, top := c.collect(p)
	cell := counterCell{
		Epoch: epoch{Count: top.Count + 1, Proc: p},
		Base:  value,
	}
	c.publish(p, cell)
	if c.emitOps {
		c.probe.OpDone(p, obs.OpCounterReset)
	}
}

// Read returns the current counter value.
func (c *DirectCounter) Read(p int) int64 {
	if c.emitOps {
		c.probe.OpBegin(p, obs.OpCounterRead)
	}
	cells, top := c.collect(p)
	var val int64
	for _, cell := range cells {
		if cell.Epoch != top {
			continue // overwritten by a newer reset
		}
		val += cell.Base + cell.Inc - cell.Dec
	}
	if c.emitOps {
		c.probe.OpDone(p, obs.OpCounterRead)
	}
	return val
}

// Base of the initial epoch is zero and no cell carries it explicitly;
// Read works because the zero-value epoch has Base 0 contributions
// only. A resetter's cell is the unique cell whose Base is non-zero
// for its epoch — every other cell attached to that epoch has Base 0.

// DirectClock is a wait-free linearizable vector logical clock built
// directly on the atomic snapshot over the MapMax lattice: Merge joins
// a remote timestamp, Read returns the join of everything merged so
// far. One snapshot operation per clock operation.
type DirectClock struct {
	snap *snapshot.Snapshot

	probe   obs.Probe
	emitOps bool
}

// NewDirectClock returns an n-process direct logical clock.
func NewDirectClock(n int) *DirectClock {
	return &DirectClock{snap: snapshot.New(n, lattice.MapMax{})}
}

// Instrument attaches a probe (one snapshot operation per clock
// operation; Tick reports one Read and one Merge). Attach before
// sharing.
func (c *DirectClock) Instrument(p obs.Probe, emitOps bool) {
	c.probe = p
	c.emitOps = emitOps && p != nil
	c.snap.Instrument(p, false)
}

// Merge joins ts into the clock.
func (c *DirectClock) Merge(p int, ts lattice.IntMap) {
	if c.emitOps {
		c.probe.OpBegin(p, obs.OpClockMerge)
	}
	c.snap.Update(p, ts)
	if c.emitOps {
		c.probe.OpDone(p, obs.OpClockMerge)
	}
}

// Read returns the current vector timestamp.
func (c *DirectClock) Read(p int) lattice.IntMap {
	if c.emitOps {
		c.probe.OpBegin(p, obs.OpClockRead)
	}
	out := c.snap.ReadMax(p).(lattice.IntMap)
	if c.emitOps {
		c.probe.OpDone(p, obs.OpClockRead)
	}
	return out
}

// Tick advances the named component by one past the largest value this
// process has seen for it, and returns the new timestamp. It is the
// Lamport "local event" rule expressed with the clock's wait-free
// primitives: not atomic as a whole (two concurrent Ticks of the same
// component may coincide), which is the inherent price of register-only
// implementations — a unique-ticket Tick would solve consensus.
func (c *DirectClock) Tick(p int, component string) lattice.IntMap {
	cur := c.Read(p)
	next := lattice.IntMap{component: cur[component] + 1}
	c.Merge(p, next)
	return lattice.MapMax{}.Join(cur, next).(lattice.IntMap)
}
