package core

import (
	"sync"
	"sync/atomic"

	"repro/apram/obs"
	"repro/internal/spec"
)

// Truncation coordinates checkpoint-and-truncate epochs for one
// universal object: the protocol that keeps the entry graph bounded
// under sustained traffic. It is shared by every process of the
// object (every Machine built over one SimUniversal, whoever steps
// them) and advances exclusively at *turn
// boundaries* — the end of an operation, or an explicit idle tick —
// never inside one.
//
// An epoch runs through three phases:
//
//	idle ──propose──▶ proposed ──all acked──▶ folding ──all folded──▶ idle
//
// Propose: at an operation's end, once `every` operations have
// completed since the last epoch and the proposer retains more than
// `retain` entries, the proposer derives the watermark W from its own
// just-scanned view: W = min over the view's anchor stamps − 1. Every
// entry with Seq ≤ W was published before the proposal (each slot's
// anchor already carried a larger stamp) and is an ancestor of every
// later scan's view, so the fold set F = {Seq ≤ W} is closed the
// moment it is proposed: no future entry joins it, and the anchors
// themselves never fold. The −1 is what keeps each slot's
// proposal-time anchor out of F; the planted-bug knob (SetUnsafe)
// removes it to demonstrate the failure.
//
// Ack: each process acknowledges the epoch at its next turn boundary.
// The ack is the linchpin of safety: a process that scanned BEFORE
// some fold-set entry was published may still publish a "danger"
// entry — precedence-unordered with, yet dominated by, a fold-set
// entry, which the reference linearization must place before it. All
// such entries are published before their process's ack (the scan
// preceded the proposal, so the publish precedes the op's end, which
// precedes the ack). When the last ack arrives the per-process
// publish counters are snapshotted as need[]: every entry that could
// ever precede the fold set is within the first need[q] publications
// of its process q.
//
// Fold: a process folds once its linearizer has indexed at least
// need[q] entries of every process q (indexed entries form a prefix
// of q's chain, so counts suffice). At that point it has indexed the
// fold set, every possible danger entry, and possibly later entries —
// which all carry stamps above W and views above the proposal
// anchors, so they are precedence-after the entire fold set and
// cannot disturb it. Linearizer.Truncate verifies the fold set is a
// linearization prefix; because every folder's index agrees on
// exactly the entries that can order against the fold set, the
// verdict is identical for all of them — a failing verdict can only
// be seen by the FIRST folder, which aborts the epoch (the next
// epoch's larger watermark internalizes the offending pair). A
// failure after some process has folded is a protocol-invariant
// violation and panics.
//
// Cut: the last folder nils the surviving entries' Prev pointers into
// the fold set, releasing it to the garbage collector. The mutation
// is safe: every boundary entry was indexed by every linearizer
// before its fold (they are pre-snapshot entries counted in need[]),
// and a linearizer never reads the Prev of an entry it has indexed;
// the mutex ordering fold(mu) → cut(mu) makes the last reads
// happen-before the writes. The one contract this breaks is building
// a FRESH linearizer over a truncated graph (one-shot core.Respond,
// Machine.Clone): it would rediscover the graph without the folded
// prefix. Truncation-enabled machines therefore refuse to Clone, and
// engine paths never construct fresh linearizers after an object is
// built.
//
// All coordination is process-local bookkeeping (a mutex and atomics
// on the side, held O(n) per turn boundary, plus the fold's local
// work): the shared PRAM registers see no extra traffic, so the
// paper's cost accounting — and, in sim mode, the exact shared-access
// trace — is bit-identical to an untruncated run.
type Truncation struct {
	s      spec.Spec
	n      int
	every  int
	retain int

	// unsafe removes the watermark's −1 (the planted truncation bug):
	// the proposer's view anchors themselves enter the fold set while
	// still reachable from in-flight scans. See SetUnsafe.
	unsafe bool

	// ops counts operation completions since the last epoch ended; the
	// idle fast path is one atomic add with no lock.
	ops atomic.Int64
	// phase mirrors phaseL for lock-free idle checks; written only
	// under mu.
	phase atomic.Int32

	mu     sync.Mutex
	phaseL truncPhase
	w      uint64 // current epoch's watermark
	lastW  uint64 // highest successfully folded watermark
	acked  []bool
	nAcked int
	need   []uint64 // per-process publish counts at the last ack
	folded []bool
	nFold  int
	pub    []atomic.Uint64 // per-process publish counters (monotone)
	// nilAt marks processes whose anchor was ⊥ (never published) in the
	// proposer's view. They are excluded from the watermark; if one of
	// them publishes before the need snapshot, the epoch aborts — see
	// propose.
	nilAt []bool

	// opsAt snapshots the completion counter at proposal time; lagged
	// marks the current epoch as having fallen a full proposal interval
	// behind live traffic (reported once per epoch, see noteLag).
	opsAt  int64
	lagged bool

	// spanOpen/spanEpoch/proposals drive the flight-recorder epoch
	// intervals (obs.EpochProbe): spanOpen[p] marks an open begin edge
	// for slot p, spanEpoch[p] the proposal it belongs to. Every edge
	// is emitted by slot p's own turn — the recorder's single-writer
	// discipline — so a slot released by an abort on another slot's
	// turn closes its span at its own next boundary.
	spanOpen  []bool
	spanEpoch []uint64
	proposals uint64

	epochs, aborts, freed, lagEpochs uint64
}

type truncPhase int32

const (
	truncIdle truncPhase = iota
	truncProposed
	truncFolding
)

func (p truncPhase) String() string {
	switch p {
	case truncIdle:
		return "idle"
	case truncProposed:
		return "proposed"
	case truncFolding:
		return "folding"
	}
	return "phase?"
}

// NewTruncation returns a coordinator for an n-process object of s
// that attempts an epoch every `every` completed operations once the
// proposer retains more than `retain` entries. It returns false when
// s has no checkpoint codec (spec.AsCheckpointable) — the caller must
// then leave the object unbounded.
func NewTruncation(s spec.Spec, n, every, retain int) (*Truncation, bool) {
	if _, ok := spec.AsCheckpointable(s); !ok {
		return nil, false
	}
	if every <= 0 {
		every = 1
	}
	if retain < 0 {
		retain = 0
	}
	return &Truncation{
		s: s, n: n, every: every, retain: retain,
		acked:     make([]bool, n),
		need:      make([]uint64, n),
		folded:    make([]bool, n),
		pub:       make([]atomic.Uint64, n),
		nilAt:     make([]bool, n),
		spanOpen:  make([]bool, n),
		spanEpoch: make([]uint64, n),
	}, true
}

// SetUnsafe plants the truncation bug the chaos harness must catch:
// the watermark loses its −1, so the fold set includes the proposer's
// view anchors — entries a process that scanned before the proposal
// can still cite as its latest-per-slot view. A later scan then
// re-discovers a freed (de-indexed) entry and re-applies its
// invocation, diverging the state. For fault-injection harness
// validation only.
func (t *Truncation) SetUnsafe() { t.unsafe = true }

// TruncationStats is a point-in-time view of the coordinator.
type TruncationStats struct {
	// Epochs counts completed epochs, Aborts epochs abandoned at the
	// first folder's prefix check, and Freed the entries released.
	Epochs, Aborts, Freed uint64
	// LaggingEpochs counts epochs during which another full proposal
	// interval (`every` operations) completed before the epoch finished
	// — the retention-backpressure signal that a starved or stalled
	// slot is holding the fold back while the entry graph keeps
	// growing. Each such epoch also reports one obs.EvTruncLag event.
	LaggingEpochs uint64
	// Phase is the current protocol phase ("idle", "proposed",
	// "folding") and Watermark the current/last epoch's watermark.
	Phase     string
	Watermark uint64
}

// Stats returns the coordinator's counters.
func (t *Truncation) Stats() TruncationStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return TruncationStats{
		Epochs: t.epochs, Aborts: t.aborts, Freed: t.freed,
		LaggingEpochs: t.lagEpochs,
		Phase:         t.phaseL.String(), Watermark: t.w,
	}
}

// notePublish records that process p published an entry. Called at
// the publishing turn, before the op-end hook — so by the time p acks
// an epoch, every entry p published is counted.
func (t *Truncation) notePublish(p int) { t.pub[p].Add(1) }

// opEnd is the turn-boundary hook: called by process p at the end of
// every operation with the view the operation scanned. The idle fast
// path costs one atomic add.
func (t *Truncation) opEnd(p int, view []*Entry, lin *Linearizer, probe obs.Probe) {
	if truncPhase(t.phase.Load()) == truncIdle {
		if t.ops.Add(1) < int64(t.every) {
			return
		}
		// Deferred unlock: advance can panic (the committed-fold verdict,
		// or a linearizer tripping over a corrupted graph when the
		// watermark is wrong). A harness that recovers such a panic
		// per-goroutine must not find the coordinator wedged.
		t.mu.Lock()
		defer t.mu.Unlock()
		if t.phaseL == truncIdle && t.ops.Load() >= int64(t.every) {
			t.propose(p, view, lin)
		}
		t.advance(p, lin, probe)
		return
	}
	t.ops.Add(1)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.noteLag(p, probe)
	t.advance(p, lin, probe)
}

// noteLag flags the current epoch once live traffic outruns it: when
// the operations completed since the proposal exceed a full proposal
// interval, some slot's ack or fold is holding the epoch — and so the
// entry graph's release — hostage to its schedule. One event per
// epoch, charged to the slot whose completion crossed the threshold.
// Caller holds mu.
func (t *Truncation) noteLag(p int, probe obs.Probe) {
	if t.phaseL == truncIdle || t.lagged {
		return
	}
	if t.ops.Load()-t.opsAt > int64(t.every) {
		t.lagged = true
		t.lagEpochs++
		if probe != nil {
			probe.Event(p, obs.EvTruncLag)
		}
	}
}

// tick is the idle turn-boundary hook: process p is between
// operations and lends the epoch a step (ack, or fold if ready). It
// never proposes — epochs start from real operations.
func (t *Truncation) tick(p int, lin *Linearizer, probe obs.Probe) {
	if truncPhase(t.phase.Load()) == truncIdle {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.advance(p, lin, probe)
}

// needsRefresh reports whether an extra scan would help process p
// advance the current epoch: p has acked, the epoch is folding, and
// p's linearizer has not yet indexed everything need[] demands.
func (t *Truncation) needsRefresh(p int, lin *Linearizer) bool {
	if truncPhase(t.phase.Load()) != truncFolding {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.phaseL == truncFolding && !t.folded[p] && !t.ready(lin)
}

// propose opens an epoch from p's just-scanned view. Caller holds mu.
//
// Processes that have never published (⊥ anchor) are excluded from
// the watermark: they contribute no entries, so they constrain no
// prefix — requiring them would let one traffic-starved slot keep the
// graph unbounded forever. Two guards keep the exclusion sound. First,
// a ⊥ anchor with a nonzero publish count means the proposer's view is
// merely stale about that process — its first entry exists and may
// carry a stamp below the watermark — so no epoch opens. Second, if an
// excluded process publishes its FIRST entry between the proposal and
// the need snapshot (its op was in flight with an old scan, so the
// stamp may land below W), the epoch aborts at the snapshot (see
// advance). After its ack such a process can only publish from a
// post-proposal scan, whose view dominates the proposer's, putting the
// stamp above W like every other post-snapshot entry.
func (t *Truncation) propose(p int, view []*Entry, lin *Linearizer) {
	w := ^uint64(0)
	published := false
	for q, e := range view {
		if e == nil {
			if t.pub[q].Load() != 0 {
				// Stale view: q has published entries the proposer has
				// not seen; their stamps could sit below any watermark
				// this view can justify.
				t.ops.Store(0)
				return
			}
			t.nilAt[q] = true
			continue
		}
		t.nilAt[q] = false
		published = true
		if e.Seq < w {
			w = e.Seq
		}
	}
	if !published {
		// Nothing has ever been published; nothing to fold.
		t.ops.Store(0)
		return
	}
	if !t.unsafe {
		w-- // keep every proposal-time anchor out of the fold set
	}
	if w <= t.lastW || lin.Retained() <= t.retain {
		t.ops.Store(0)
		return
	}
	t.w = w
	t.setPhase(truncProposed)
	t.proposals++
	t.opsAt = t.ops.Load()
	t.lagged = false
	t.nAcked = 0
	for i := range t.acked {
		t.acked[i] = false
	}
}

// ready reports whether lin has indexed every entry counted in need.
func (t *Truncation) ready(lin *Linearizer) bool {
	for q := 0; q < t.n; q++ {
		if uint64(lin.IndexedByProc(q)) < t.need[q] {
			return false
		}
	}
	return true
}

// advance runs every protocol transition available to process p at
// this turn boundary. Caller holds mu.
func (t *Truncation) advance(p int, lin *Linearizer, probe obs.Probe) {
	// A span left open by an epoch that ended on another slot's turn
	// (an abort, or a fold this slot completed before the abort) closes
	// here, at p's own next boundary.
	if t.spanOpen[p] && (t.phaseL == truncIdle || t.spanEpoch[p] != t.proposals) {
		t.closeSpan(p, probe)
	}
	if t.phaseL == truncProposed {
		if !t.acked[p] {
			t.acked[p] = true
			t.nAcked++
			t.openSpan(p, probe)
		}
		if t.nAcked < t.n {
			return
		}
		// All acked: a process excluded from the watermark as
		// never-published must still be publication-free, or its first
		// entry may carry a stamp below W — a late joiner the fold set's
		// closure argument cannot cover. Abort; the next proposal's view
		// will include its anchor.
		for q := 0; q < t.n; q++ {
			if t.nilAt[q] && t.pub[q].Load() != 0 {
				t.aborts++
				t.closeSpan(p, probe)
				t.endEpoch()
				return
			}
		}
		// Snapshot the publish counters. Every entry that can precede
		// the fold set was published before its process's ack, so it is
		// within these counts.
		for q := 0; q < t.n; q++ {
			t.need[q] = t.pub[q].Load()
		}
		t.setPhase(truncFolding)
		t.nFold = 0
		for i := range t.folded {
			t.folded[i] = false
		}
	}
	if t.phaseL != truncFolding || t.folded[p] || !t.ready(lin) {
		return
	}
	removed, boundary, err := lin.Truncate(t.w)
	if err != nil {
		if t.nFold == 0 {
			// First folder: the fold set is not a linearization prefix
			// (or the codec rejected the fold). Abort; a later epoch's
			// larger watermark internalizes the offending pair.
			t.aborts++
			t.closeSpan(p, probe)
			t.endEpoch()
			return
		}
		// Every folder sees the same verdict (they agree on every entry
		// that can order against the fold set); disagreement after a
		// committed fold means the protocol's invariants are broken.
		panic("core: truncation fold diverged after a committed fold: " + err.Error())
	}
	t.folded[p] = true
	t.nFold++
	if probe != nil {
		probe.Event(p, obs.EvCheckpoint)
	}
	t.closeSpan(p, probe)
	if t.nFold < t.n {
		return
	}
	// Last folder: cut the boundary. Every linearizer has folded, so
	// none will ever read these Prev pointers again (indexed entries'
	// Prev arrays are never re-walked), and the fold set becomes
	// garbage. Boundary lists are identical across folders; using the
	// last folder's is arbitrary but sufficient.
	for _, e := range boundary {
		for j, pe := range e.Prev {
			if pe != nil && pe.Seq <= t.w {
				e.Prev[j] = nil
			}
		}
	}
	t.lastW = t.w
	t.epochs++
	t.freed += uint64(removed)
	if probe != nil {
		probe.Event(p, obs.EvTruncate)
		obs.GaugeSet(probe, p, obs.GaugeRetained, uint64(lin.Retained()))
	}
	t.endEpoch()
}

// endEpoch returns to idle and restarts the operation countdown.
// Caller holds mu.
func (t *Truncation) endEpoch() {
	t.setPhase(truncIdle)
	t.ops.Store(0)
}

// openSpan emits p's epoch-participation begin edge (at p's ack) and
// remembers which proposal it belongs to. Caller holds mu; the edge
// lands on p's own turn.
func (t *Truncation) openSpan(p int, probe obs.Probe) {
	if t.spanOpen[p] {
		return
	}
	t.spanOpen[p] = true
	t.spanEpoch[p] = t.proposals
	if probe != nil {
		obs.EpochBegin(probe, p)
	}
}

// closeSpan emits p's epoch-participation end edge if one is open.
// Caller holds mu; the edge lands on p's own turn.
func (t *Truncation) closeSpan(p int, probe obs.Probe) {
	if !t.spanOpen[p] {
		return
	}
	t.spanOpen[p] = false
	if probe != nil {
		obs.EpochEnd(probe, p)
	}
}

func (t *Truncation) setPhase(p truncPhase) {
	t.phaseL = p
	t.phase.Store(int32(p))
}
