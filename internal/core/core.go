// Package core implements the paper's primary contribution: the
// universal wait-free construction of Section 5.4 (Figure 4), which
// turns any sequential specification satisfying Property 1 (every pair
// of operations commutes or one overwrites the other) into an
// n-process linearizable wait-free object in the asynchronous PRAM
// model, at a synchronization overhead of O(n²) reads and writes per
// operation.
//
// The object is represented by its precedence graph of entries. Each
// entry records an invocation, its response, and pointers to each
// process's preceding entry (the snapshot view at creation). The graph
// is rooted in an anchor array scanned and written through the atomic
// snapshot of Section 6: executing an operation takes one atomic scan
// of the anchor array (Step 1), computes the response from a
// linearization of the scanned graph (Figure 3), and publishes the new
// entry with one Write_L (Step 2).
//
// The algorithm has one body, Machine, which performs one shared
// access per Step against any pram.Memory. Universal drives it two
// ways: New steps each slot's machine on the slot's own goroutine over
// native atomics (pram/native), and NewSimulated serializes every
// machine's steps on the simulator under a scheduler, which is how
// experiment E6 measures the O(n²) overhead exactly. The exhaustive
// explorer and the chaos harness step the same machines directly.
package core

import (
	"fmt"

	"repro/apram/obs"
	"repro/internal/lattice"
	"repro/internal/pram"
	"repro/internal/pram/native"
	"repro/internal/snapshot"
	"repro/internal/spec"
)

// Entry is one operation record in the shared precedence graph. An
// Entry is immutable after publication; entries are shared freely
// across snapshots, clones, and goroutines.
type Entry struct {
	// Proc and Seq identify the entry. Seq is a Lamport-style stamp:
	// strictly greater than the publisher's previous stamp and than
	// every stamp in the snapshot view the entry was created from. It
	// is therefore monotone per process (so it doubles as the anchor
	// cell's lattice tag) and consistent with precedence, which keeps
	// concurrent publishers' stamps interleaved near the top of the
	// history — the property the linearization engine's suffix-
	// compatibility check needs for its fast path to stay the common
	// case under concurrency. (With plain per-process counters, slots
	// running at different speeds drift apart and every cross-slot
	// observation lands below the watermark, forcing a full O(m²)
	// rebuild per operation.)
	Proc int
	Seq  uint64
	// Inv and Resp are the operation and its chosen response.
	Inv  spec.Inv
	Resp any
	// Prev[i] is process i's latest entry in the snapshot taken at
	// this entry's creation (nil if i had none). These are the
	// precedence edges of Figure 4's entry structure.
	Prev []*Entry
}

// String renders the entry compactly.
func (e *Entry) String() string {
	return fmt.Sprintf("P%d#%d:%v=%v", e.Proc, e.Seq, e.Inv, e.Resp)
}

// CheckProperty1 validates that s satisfies Property 1 over the given
// invocation sample and that its declared algebra matches its
// executable behaviour on the given states. The universal construction
// is only correct for Property 1 types; constructing one for, say, a
// FIFO queue would silently produce non-linearizable behaviour, so
// callers are expected to gate construction on this check (NewChecked
// does it for them).
func CheckProperty1(s spec.Spec, states []spec.State, invs []spec.Inv) error {
	if vs := spec.CheckAlgebra(s, states, invs); len(vs) > 0 {
		return fmt.Errorf("core: %s fails algebra validation: %s", s.Name(), vs[0])
	}
	return nil
}

// Respond computes the response to inv after the linearization of
// view, replaying the sequential specification — the heart of Figure
// 4's Step 1. It also returns the linearized history for diagnostics.
//
// This one-shot form builds everything from scratch; callers that
// issue repeated operations for the same process should hold a
// Linearizer, which amortizes the local work to the entries that are
// new since the previous call. A fresh Linearizer's single call is
// computation-for-computation the same build, so the two forms agree
// exactly.
func Respond(s spec.Spec, view []*Entry, inv spec.Inv) (any, []*Entry, error) {
	return NewLinearizer(s).Respond(view, inv)
}

// nextSeq returns the Lamport stamp for a process's next entry:
// strictly above its own previous stamp and above every entry in the
// snapshot view the entry will point at. Purely local — the view was
// already scanned — so the paper's cost accounting is unaffected.
func nextSeq(view []*Entry, own uint64) uint64 {
	s := own
	for _, e := range view {
		if e != nil && e.Seq > s {
			s = e.Seq
		}
	}
	return s + 1
}

// viewOf extracts the latest-entry-per-process view from a snapshot
// vector whose cells carry *Entry payloads.
func viewOf(vec lattice.Vec) []*Entry {
	out := make([]*Entry, len(vec))
	for i, c := range vec {
		if c.Tag != 0 {
			out[i] = c.Val.(*Entry)
		}
	}
	return out
}

// Universal is the universal construction as a shared object: one
// Figure 4 Machine per process slot, stepped on a register substrate.
// Process index p must be driven by at most one goroutine at a time;
// distinct indices may run concurrently, and every operation is
// wait-free.
type Universal struct {
	s   spec.Spec
	n   int
	mem pram.Memory
	// mcs[p] is slot p's machine — the body the chaos harness and the
	// exhaustive explorer check — owned, like the slot, by the
	// goroutine driving p.
	mcs []*Machine

	// eng, when non-nil, serializes the machines' steps on the
	// simulated substrate (see NewSimulated); otherwise each slot's
	// goroutine steps its own machine on native atomics.
	eng *simEngine

	// tr, when non-nil, bounds the entry graph: the checkpoint-and-
	// truncate coordinator shared by every slot's machine (see
	// truncate.go).
	tr *Truncation

	probe obs.Probe // nil when uninstrumented
	// regs[p] is slot p's (reads, writes) count at its last report to
	// the probe; written only by slot p's owner.
	regs [][2]uint64
}

// newUniversal lays the anchor array out in mem and builds one machine
// per slot.
func newUniversal(s spec.Spec, n int, mem pram.Memory) *Universal {
	su := NewSim(s, n, 0, mem)
	mcs := make([]*Machine, n)
	for p := range mcs {
		mcs[p] = NewMachine(su, p, nil)
	}
	return &Universal{s: s, n: n, mem: mem, mcs: mcs}
}

// New returns an n-process wait-free object implementing s on native
// atomics (pram/native): Execute steps the calling slot's machine to
// completion on its own goroutine. It does not validate Property 1;
// use NewChecked when the spec's algebra has not been independently
// verified.
func New(s spec.Spec, n int) *Universal {
	if n <= 0 {
		panic("core: need at least one process")
	}
	return newUniversal(s, n, native.NewMem(snapshot.Layout{N: n}.Regs(), n))
}

// NewChecked validates the spec's algebra over the given samples
// before constructing the object.
func NewChecked(s spec.Spec, n int, states []spec.State, invs []spec.Inv) (*Universal, error) {
	if err := CheckProperty1(s, states, invs); err != nil {
		return nil, err
	}
	return New(s, n), nil
}

// NewSimulated returns an n-process object whose machines run on a
// simulated memory, with sc (nil = round-robin) choosing which pending
// slot takes each step. The machines are the ones New builds; only
// the stepping loop and the substrate change: accesses are serialized
// and counted exactly, so SimCounters reports the paper's step costs to
// the access, and wall-clock time means nothing. This is the engine
// behind apram.WithBackend(Simulated).
func NewSimulated(s spec.Spec, n int, sc pram.Scheduler) *Universal {
	if n <= 0 {
		panic("core: need at least one process")
	}
	mem := pram.NewMem(snapshot.Layout{N: n}.Regs(), n)
	u := newUniversal(s, n, mem)
	u.eng = newSimEngine(mem, u.mcs, sc)
	return u
}

// Instrument attaches a probe. The machines report obs.EvPublish /
// obs.EvPureElide / obs.EvLinRebuild events; Execute reports the
// OpExecute edges and, before the end edge, the operation's register
// accesses in one RegReads and one RegWrites call, read off the
// memory's per-process counters (one OpExecute is one Scan plus, for
// non-pure operations, one Update — 2(n²−1) reads and 2(n+1) writes).
// Attach before the object is shared.
func (u *Universal) Instrument(p obs.Probe) {
	u.probe = p
	c := u.counters()
	u.regs = make([][2]uint64, u.n)
	for q := range u.regs {
		u.regs[q] = [2]uint64{c.ReadsBy[q], c.WritesBy[q]}
	}
	for _, mc := range u.mcs {
		mc.Instrument(p)
	}
}

// reportRegs hands the probe slot p's register accesses since its
// previous report.
func (u *Universal) reportRegs(p int) {
	c := u.counters()
	r, w := c.ReadsBy[p], c.WritesBy[p]
	u.probe.RegReads(p, int(r-u.regs[p][0]))
	u.probe.RegWrites(p, int(w-u.regs[p][1]))
	u.regs[p] = [2]uint64{r, w}
}

// counters returns the substrate's access counters, taking the engine
// lock on the simulated substrate.
func (u *Universal) counters() pram.Counters {
	if u.eng != nil {
		return u.eng.counters()
	}
	return u.mem.Counters()
}

// N returns the number of process slots.
func (u *Universal) N() int { return u.n }

// Spec returns the sequential specification.
func (u *Universal) Spec() spec.Spec { return u.s }

// SetIncremental toggles every process's incremental linearization
// fast path; with it off, each Execute rebuilds from scratch (the
// pre-caching reference cost). Responses, published entries, and the
// shared-access trace are identical either way — only local work
// changes. Call before the object is shared across goroutines.
func (u *Universal) SetIncremental(on bool) {
	for _, mc := range u.mcs {
		mc.SetIncremental(on)
	}
}

// LinStats returns process p's linearization-engine counters. Like
// Execute it belongs to slot p's owner (or to a quiescent object).
func (u *Universal) LinStats(p int) LinStats { return u.mcs[p].LinStats() }

// Simulated reports whether the object executes on the simulated
// register substrate (NewSimulated) rather than native atomics.
func (u *Universal) Simulated() bool { return u.eng != nil }

// RootTags collects each slot's latest published entry stamp from the
// anchor array's row-0 registers, reusing dst when it has capacity. It
// owns no slot and may be called from any goroutine: each read is one
// uncounted atomic load (pram.Memory.Peek) of the register its process
// writes FIRST in every Scan/Update, so q's row-0 value changes before
// q's update is visible to any scan, and any scan whose first row of
// reads starts after the load sees at least this value. Stamps are
// monotone per process (Entry.Seq is Lamport-style). Two equal
// collects therefore witness that no publication's visibility edge
// fell between them — every scan starting in that window observes
// exactly the entries stamped at or below these tags. The sharded
// construction's cross-shard snapshot validator is built on this; tag
// 0 means the slot has never published.
//
// Simulated-backend objects return nil: step-granular runs have no
// concurrent observers, so callers (the shard layer) quiesce instead.
// The n loads are not reported to any probe — RootTags runs outside
// the per-slot accounting discipline, and its caller owns the cost.
func (u *Universal) RootTags(dst []uint64) []uint64 {
	if u.eng != nil {
		return nil
	}
	if cap(dst) < u.n {
		dst = make([]uint64, u.n)
	}
	dst = dst[:u.n]
	lay := snapshot.Layout{N: u.n}
	for q := range dst {
		dst[q] = u.mem.Peek(lay.Reg(q, 0)).(lattice.Vec)[q].Tag
	}
	return dst
}

// SimCounters returns the simulated substrate's exact access counters;
// it panics for native-backend objects, whose accesses are counted by
// an attached probe instead.
func (u *Universal) SimCounters() pram.Counters {
	if u.eng == nil {
		panic("core: SimCounters on a native-backend object")
	}
	return u.counters()
}

// StepClock returns a deterministic clock over the simulated
// substrate: each call reports the total shared accesses serialized so
// far, so "timestamps" are schedule positions and any telemetry built
// on them reproduces byte-for-byte across identical runs. The read
// takes the engine mutex (it may race concurrent Executes); callers on
// a latency-critical path should sample it at turn boundaries only.
// Native-backend objects return nil — wall-clock time is the
// meaningful axis there.
func (u *Universal) StepClock() func() uint64 {
	if u.eng == nil {
		return nil
	}
	eng := u.eng
	return func() uint64 {
		eng.mu.Lock()
		defer eng.mu.Unlock()
		return eng.mem.Steps()
	}
}

// EnableTruncation bounds the object's entry graph: once every
// `every` completed operations (and once more than `retain` entries
// are live), the slots run a checkpoint-and-truncate epoch that folds
// the history prefix below every anchor into a spec.Key-validated
// state checkpoint and frees the folded entries (see Truncation). It
// returns false — leaving the object unbounded — when the spec has no
// checkpoint codec. Call before the object is shared; responses,
// linearizations, and the shared-access trace are identical with or
// without truncation.
func (u *Universal) EnableTruncation(every, retain int) bool {
	tr, ok := NewTruncation(u.s, u.n, every, retain)
	if !ok {
		return false
	}
	u.tr = tr
	for _, mc := range u.mcs {
		mc.SetTruncation(tr)
	}
	return true
}

// TruncationEnabled reports whether EnableTruncation succeeded.
func (u *Universal) TruncationEnabled() bool { return u.tr != nil }

// Truncation returns the object's truncation coordinator (nil when
// truncation is not enabled) — harness access for planting the unsafe
// watermark (Truncation.SetUnsafe) and inspecting the epoch machinery.
func (u *Universal) Truncation() *Truncation { return u.tr }

// TruncStats returns the truncation coordinator's counters; the zero
// value when truncation is not enabled.
func (u *Universal) TruncStats() TruncationStats {
	if u.tr == nil {
		return TruncationStats{Phase: "disabled"}
	}
	return u.tr.Stats()
}

// Retained returns the object's live entry-graph footprint: the
// maximum entry count any slot's linearizer currently indexes (slots
// lag each other by at most the entries they have not yet observed).
// Each count is published atomically by its slot, so any goroutine
// may call this while the slots run.
func (u *Universal) Retained() int {
	max := 0
	for _, mc := range u.mcs {
		if r := mc.Retained(); r > max {
			max = r
		}
	}
	return max
}

// TruncTick lends slot p's idle time to a pending truncation epoch:
// it acks a proposed epoch and, when a fold is pending on entries p
// has not observed yet, performs one extra scan so the fold can
// complete without waiting for p's next operation. The caller must
// own slot p (same discipline as Execute). No-op without truncation
// or when no epoch is in flight; apram/serve's slot workers call this
// between queue drains.
func (u *Universal) TruncTick(p int) {
	if u.tr == nil {
		return
	}
	var scanned bool
	if u.eng != nil {
		scanned = u.eng.truncTick(p)
	} else {
		scanned = u.mcs[p].truncTick(u.mem)
	}
	if scanned && u.probe != nil {
		u.reportRegs(p)
	}
}

// Execute runs one operation for process p: snapshot the anchor array,
// linearize, choose the response, publish the new entry (Figure 4).
// On native atomics the calling goroutine steps slot p's machine to
// completion itself; on the simulated substrate the engine's scheduler
// pump does.
func (u *Universal) Execute(p int, inv spec.Inv) any {
	if p < 0 || p >= u.n {
		panic(fmt.Sprintf("core: process %d out of range [0,%d)", p, u.n))
	}
	if u.probe != nil {
		obs.Begin(u.probe, p, obs.OpExecute)
	}
	var resp any
	if u.eng != nil {
		resp = u.eng.execute(p, inv)
	} else {
		resp = u.mcs[p].run(inv, u.mem)
	}
	if u.probe != nil {
		u.reportRegs(p)
		u.probe.OpDone(p, obs.OpExecute)
	}
	return resp
}
