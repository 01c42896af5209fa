// Package consensus implements randomized wait-free binary consensus
// from atomic registers — the paper's Section 2 remark made concrete:
// "the asynchronous PRAM model is universal for randomized wait-free
// objects" (citing Aspnes & Herlihy's randomized consensus, reference
// [6], whose shared coin is exactly the shared counter that Section
// 5.1 names as a motivating Property 1 type).
//
// Deterministic consensus from registers is impossible (Section 1);
// the randomized protocol sidesteps the impossibility by alternating
// two wait-free building blocks per round:
//
//   - an adopt-commit object (safety): if any process commits v, every
//     process leaves the round holding v, so disagreement can never be
//     re-introduced once someone decides;
//   - a conciliator (liveness): a shared-coin random walk over the
//     wait-free counter that, with constant probability, hands every
//     process the same value, after which the next adopt-commit
//     commits.
//
// Safety is deterministic and unconditional; only the number of rounds
// is random (constant in expectation).
package consensus

import (
	"fmt"

	"repro/apram/obs"
	"repro/internal/lattice"
	"repro/internal/snapshot"
)

// Outcome is an adopt-commit verdict.
type Outcome int

// Adopt-commit outcomes.
const (
	// Adopt: carry the returned value into the next round.
	Adopt Outcome = iota
	// Commit: the returned value is decided; every other process is
	// guaranteed to leave this object holding it.
	Commit
)

// String renders the outcome.
func (o Outcome) String() string {
	if o == Commit {
		return "commit"
	}
	return "adopt"
}

// acCell is one process's published state in the adopt-commit object.
type acCell struct {
	V1    int  // phase-1 proposal
	Has2  bool // phase 2 reached
	V2    int  // phase-2 claim
	First bool // phase-1 scan was unanimous on V1
}

// AdoptCommit is a wait-free adopt-commit object built on the atomic
// snapshot. Its correctness argument leans directly on the snapshot's
// linearizability (Theorem 33):
//
// All processes whose phase-1 scan was unanimous ("first" processes)
// necessarily saw each other's proposals in linearization order, so
// they all hold one common value u*. A process commits only if it is
// first and its phase-2 scan shows only u*; any process whose phase-2
// publish is linearized before that scan was therefore already
// claiming u*, and any process scanning later sees a first-flagged u*
// claim and adopts it. Either way, every exit carries u* once anyone
// commits.
type AdoptCommit struct {
	snap *snapshot.Snapshot
	vl   lattice.Vector
	tag  []uint64 // per-process publication tags (owned by the process)

	probe   obs.Probe
	emitOps bool
}

// NewAdoptCommit returns an n-process adopt-commit object.
func NewAdoptCommit(n int) *AdoptCommit {
	vl := lattice.Vector{N: n}
	return &AdoptCommit{snap: snapshot.New(n, vl), vl: vl, tag: make([]uint64, n)}
}

// Instrument attaches a probe. Register accounting flows from the
// embedded snapshot (Apply is exactly two snapshot operations);
// phase-2 verdicts surface as obs.EvCommit / obs.EvAdopt. emitOps
// false suppresses the OpACApply completions for nested use inside
// Consensus. Attach before sharing.
func (ac *AdoptCommit) Instrument(p obs.Probe, emitOps bool) {
	ac.probe = p
	ac.emitOps = emitOps && p != nil
	ac.snap.Instrument(p, false)
}

// N returns the number of process slots.
func (ac *AdoptCommit) N() int { return ac.vl.N }

// publish atomically joins p's cell into the object and returns the
// resulting view — publish and read share one linearization point,
// which is what the proof sketch above uses.
func (ac *AdoptCommit) publish(p int, cell acCell) []acCell {
	ac.tag[p]++
	vec := ac.snap.Scan(p, ac.vl.Single(p, ac.tag[p], cell)).(lattice.Vec)
	out := make([]acCell, len(vec))
	for i, c := range vec {
		if c.Tag != 0 {
			out[i] = c.Val.(acCell)
		} else {
			out[i] = acCell{V1: -1}
		}
	}
	return out
}

// phase1 publishes the proposal and reports the value to claim and
// whether the scan was unanimous.
func (ac *AdoptCommit) phase1(p, v int) (u int, first bool) {
	view := ac.publish(p, acCell{V1: v})
	u, first = v, true
	for _, c := range view {
		if c.V1 == -1 {
			continue // not yet published
		}
		if c.V1 != v {
			first = false
			if c.V1 < u {
				u = c.V1 // deterministic pick among seen proposals
			}
		}
	}
	return u, first
}

// phase2 publishes the claim and resolves the outcome.
func (ac *AdoptCommit) phase2(p, v, u int, first bool) (Outcome, int) {
	view := ac.publish(p, acCell{V1: v, Has2: true, V2: u, First: first})
	unanimous := true
	firstClaim := -1
	for _, c := range view {
		if !c.Has2 {
			continue
		}
		if c.V2 != u {
			unanimous = false
		}
		if c.First {
			firstClaim = c.V2 // unique across first processes (see doc)
		}
	}
	if first && unanimous {
		if ac.probe != nil {
			ac.probe.Event(p, obs.EvCommit)
		}
		return Commit, u
	}
	if ac.probe != nil {
		ac.probe.Event(p, obs.EvAdopt)
	}
	if firstClaim != -1 {
		return Adopt, firstClaim
	}
	return Adopt, u
}

// Apply runs the adopt-commit protocol for process p with proposal
// v ≥ 0. It is wait-free: exactly two snapshot operations.
func (ac *AdoptCommit) Apply(p, v int) (Outcome, int) {
	if v < 0 {
		panic(fmt.Sprintf("consensus: proposal %d must be non-negative", v))
	}
	if ac.emitOps {
		ac.probe.OpBegin(p, obs.OpACApply)
	}
	u, first := ac.phase1(p, v)
	outcome, w := ac.phase2(p, v, u, first)
	if ac.emitOps {
		ac.probe.OpDone(p, obs.OpACApply)
	}
	return outcome, w
}
