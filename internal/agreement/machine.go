// Package agreement implements the wait-free approximate agreement
// object of Aspnes & Herlihy, Section 4 (Figures 1 and 2), in both
// execution modes:
//
//   - a step-granular state machine (Machine) for the asynchronous PRAM
//     simulator, which is what the paper's step counts (Theorem 5) and
//     the Lemma 6 adversary are measured against, and
//   - a native goroutine implementation (Native) built on atomic
//     registers, for real concurrent use and throughput benchmarks.
//
// The object's sequential specification (Figure 1): input(P, x) inserts
// x into the input set X; output(P) returns a value y such that the set
// Y of all outputs satisfies range(Y) ⊆ range(X) and |range(Y)| < ε.
package agreement

import (
	"fmt"
	"math"

	"repro/apram/obs"
	"repro/internal/pram"
)

// Entry is the per-process register contents of Figure 2: an integer
// round (initially zero) and a real preference (initially ⊥, encoded
// by Valid == false).
type Entry struct {
	Round  int
	Prefer float64
	Valid  bool
}

// Layout describes where an agreement object's registers live in a
// simulated memory: register Base+P is process P's entry.
type Layout struct {
	Base int
	N    int
}

// Reg returns the register index of process p's entry.
func (l Layout) Reg(p int) int { return l.Base + p }

// Install initializes the object's registers in m: all entries start
// at round zero with no preference, and register p is owned by p.
func (l Layout) Install(m pram.Memory) {
	for p := 0; p < l.N; p++ {
		m.Init(l.Reg(p), Entry{})
		m.SetOwner(l.Reg(p), p)
	}
}

// phases of the Machine, mirroring the pseudocode of Figure 2.
type phase int

const (
	phInputRead  phase = iota // input: read own entry (line 2)
	phInputWrite              // input: write initial preference (line 3)
	phScan                    // output: scanning the entries (line 10)
	phWrite                   // output: advance the entry (line 16)
	phDone
)

// Machine executes input(P, x) followed by output(P) as a
// step-granular state machine: one shared-memory access per Step. It
// is a line-by-line transcription of Figure 2.
type Machine struct {
	proc int
	x    float64
	eps  float64
	lay  Layout

	ph      phase
	i       int     // scan cursor
	view    []Entry // entries read by the current scan
	advance bool    // the rescan flag of lines 18–19
	mine    Entry   // local copy of own entry (single writer)
	pending Entry   // entry to write next, when ph == phWrite

	rounds int // completed advances (writes in line 16)
	scans  int // completed scans
	result float64

	// probe, when set, receives an obs.EvRound per advance and an
	// obs.EvRetry per line-19 rescan. Register counts and op edges are
	// the driving engine's job; clones share the probe.
	probe obs.Probe
}

// NewMachine returns a machine for process proc that will input x and
// then run output() to completion with tolerance eps > 0.
func NewMachine(proc int, x, eps float64, lay Layout) *Machine {
	if eps <= 0 {
		panic("agreement: eps must be positive")
	}
	if proc < 0 || proc >= lay.N {
		panic(fmt.Sprintf("agreement: process %d out of range", proc))
	}
	return &Machine{
		proc: proc, x: x, eps: eps, lay: lay,
		ph:   phInputRead,
		view: make([]Entry, lay.N),
	}
}

// Done reports whether output() has returned.
func (mc *Machine) Done() bool { return mc.ph == phDone }

// Completed returns 1 once input+output finished (pram.Progress): the
// machine's whole script is the single agreement operation.
func (mc *Machine) Completed() int {
	if mc.ph == phDone {
		return 1
	}
	return 0
}

// Result returns the value output() returned. It panics if the machine
// is not done.
func (mc *Machine) Result() float64 {
	if mc.ph != phDone {
		panic("agreement: Result before Done")
	}
	return mc.result
}

// Rounds returns the number of times the machine advanced its entry
// (executed line 16).
func (mc *Machine) Rounds() int { return mc.rounds }

// Scans returns the number of completed scans of the entry array.
func (mc *Machine) Scans() int { return mc.scans }

// Instrument attaches a probe for round/retry events.
func (mc *Machine) Instrument(p obs.Probe) { mc.probe = p }

// Clone returns an independent copy of the machine.
func (mc *Machine) Clone() pram.Machine {
	cp := *mc
	cp.view = append([]Entry(nil), mc.view...)
	return &cp
}

// Step performs the machine's next shared-memory access.
func (mc *Machine) Step(m pram.Memory) {
	switch mc.ph {
	case phInputRead:
		// Line 2: if r[P].prefer = ⊥ ...
		e := m.Read(mc.proc, mc.lay.Reg(mc.proc)).(Entry)
		mc.mine = e
		if e.Valid {
			// input has no effect; go straight to output.
			mc.ph = phScan
			mc.i = 0
			return
		}
		mc.ph = phInputWrite

	case phInputWrite:
		// Line 3: r[P] := [prefer: x, round: 1]
		mc.mine = Entry{Round: 1, Prefer: mc.x, Valid: true}
		m.Write(mc.proc, mc.lay.Reg(mc.proc), mc.mine)
		mc.ph = phScan
		mc.i = 0

	case phScan:
		// Line 10: scan r, one register per step.
		mc.view[mc.i] = m.Read(mc.proc, mc.lay.Reg(mc.i)).(Entry)
		mc.i++
		if mc.i < mc.lay.N {
			return
		}
		mc.scans++
		mc.i = 0
		if !mc.mine.Valid {
			panic("agreement: output invoked before input (X is empty)")
		}
		done, next := decide(mc.view, mc.mine, mc.eps, mc.advance)
		switch {
		case done:
			mc.result = mc.mine.Prefer
			mc.ph = phDone
		case next.Valid:
			mc.pending = next
			mc.ph = phWrite
		default:
			if mc.probe != nil {
				mc.probe.Event(mc.proc, obs.EvRetry)
			}
			mc.advance = true
		}

	case phWrite:
		// Lines 16–17: advance the entry.
		mc.mine = mc.pending
		m.Write(mc.proc, mc.lay.Reg(mc.proc), mc.mine)
		mc.rounds++
		if mc.probe != nil {
			mc.probe.Event(mc.proc, obs.EvRound)
		}
		mc.advance = false
		mc.ph = phScan
		mc.i = 0

	case phDone:
		panic("agreement: Step after Done")
	}
}

// decide is lines 11–19 of Figure 2, shared by Machine and Native: given
// a completed scan view and the process's own entry mine, it reports
// done when the process returns mine.Prefer (lines 13–14), else the
// entry it advances to (line 16), else an invalid next, when it must
// rescan once first (line 19); advance says it already has.
func decide(view []Entry, mine Entry, eps float64, advance bool) (done bool, next Entry) {
	// Line 11: E := {r[Q].prefer : r[Q].round >= r[P].round - 1}
	// Line 12: L := {r[Q].prefer : r[Q].round = max_Q r[Q].round}
	maxRound := 0
	for _, e := range view {
		if e.Valid && e.Round > maxRound {
			maxRound = e.Round
		}
	}
	eMin, eMax := math.Inf(1), math.Inf(-1)
	lMin, lMax := math.Inf(1), math.Inf(-1)
	// A ⊥ entry (round 0, no preference) inside the round window makes
	// range(E) indeterminate: the process that owns it may yet input
	// an arbitrary value at round 1. This can only happen while our
	// own round is 1 (the window is round ≥ 0); at round ≥ 2, round-0
	// entries trail by two or more and are discarded like any other
	// stale entry. Without this rule a process could return at round 1
	// before a slow peer's input lands, violating agreement — the
	// Lemma 4 proof covers round-r writes made through line 16 only,
	// and blocking the round-1 return is what makes X₁ safe.
	blocked := false
	for _, e := range view {
		if !e.Valid {
			if 0 >= mine.Round-1 {
				blocked = true
			}
			continue
		}
		if e.Round >= mine.Round-1 {
			eMin = math.Min(eMin, e.Prefer)
			eMax = math.Max(eMax, e.Prefer)
		}
		if e.Round == maxRound {
			lMin = math.Min(lMin, e.Prefer)
			lMax = math.Max(lMax, e.Prefer)
		}
	}
	switch {
	case !blocked && eMax-eMin < eps/2:
		return true, Entry{}
	case lMax-lMin < eps/2 || advance:
		return false, Entry{Round: mine.Round + 1, Prefer: (lMin + lMax) / 2, Valid: true}
	}
	return false, Entry{}
}

// StepBound is the Theorem 5 upper bound on steps per process:
// (2n+1)·log₂(Δ/ε) + O(n). The additive term covers the input steps,
// the final scans, and the +1 round of slack the proof allows
// ("every process returns on or before round r+1").
func StepBound(n int, delta, eps float64) int {
	if delta <= eps {
		// Already within tolerance: a constant number of rounds.
		return 3 * (2*n + 1)
	}
	rounds := math.Ceil(math.Log2(delta/eps)) + 3
	return int(float64(2*n+1)*rounds) + 4*n
}

// LowerBound is the Lemma 6 adversary floor: ⌊log₃(Δ/ε)⌋ steps for
// some process in any deterministic implementation, for two processes.
func LowerBound(delta, eps float64) int {
	if delta <= eps {
		return 0
	}
	return int(math.Floor(math.Log(delta/eps) / math.Log(3)))
}
