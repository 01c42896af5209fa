package consensus

import "repro/apram/obs"

// Stepper drives one process through the consensus protocol one
// linearizable shared-memory operation at a time, under external
// (possibly adversarial) control; Decide steps one to completion.
// Every building block the protocol uses — the snapshot operations
// inside adopt-commit, the counter operations inside the shared coin —
// is linearizable, so interleaving at whole-operation granularity
// explores every distinguishable behaviour; this is what lets
// deterministic schedule harnesses (the stepper tests, the chaos
// fuzzer) cover chosen schedules and crash points rather than sampled
// ones.
//
// A Stepper's coin flips come from its round's SharedCoin source for
// its slot, seeded by New, so a fixed (seed, schedule) pair replays
// bit-for-bit.
type Stepper struct {
	c    *Consensus
	p    int
	v    int
	r    int
	done bool
	out  int

	phase int // 0 conciliator publish+scan; 1–2 coin walk; 3 ac.phase1; 4 ac.phase2
	// adopt-commit intermediates
	acU     int
	acFirst bool
}

// NewStepper returns a stepper for process p proposing v ∈ {0, 1} on
// c.
func NewStepper(c *Consensus, p, v int) *Stepper {
	return &Stepper{c: c, p: p, v: v}
}

// Done reports whether the process has decided.
func (s *Stepper) Done() bool { return s.done }

// Output returns the decided value. It panics before Done.
func (s *Stepper) Output() int {
	if !s.done {
		panic("consensus: Output before Done")
	}
	return s.out
}

// Step performs exactly one linearizable shared-memory operation of
// the protocol and reports whether the process has decided. A decision
// is recorded on the Consensus: a later Decide by the slot returns it,
// and RoundsUsed reports its rounds.
func (s *Stepper) Step() bool {
	if s.done {
		return true
	}
	rd := &s.c.round[s.r]
	switch s.phase {
	case 0: // conciliator: one atomic publish+scan; unanimity skips the coin
		if _, unanimous := rd.con.phase1(s.p, s.v); unanimous {
			s.phase = 3
		} else {
			s.phase = 1
		}
	case 1: // coin walk: one counter update...
		rd.coin.move(s.p)
		s.phase = 2
	case 2: // ...then one read, until the walk has crossed a barrier
		if out, done := rd.coin.look(s.p); done {
			s.v = out
			s.phase = 3
		} else {
			s.phase = 1
		}
	case 3: // adopt-commit phase 1: one snapshot op
		s.acU, s.acFirst = rd.ac.phase1(s.p, s.v)
		s.phase = 4
	case 4: // adopt-commit phase 2: one snapshot op
		outcome, u := rd.ac.phase2(s.p, s.v, s.acU, s.acFirst)
		s.v = u
		if s.c.probe != nil {
			s.c.probe.Event(s.p, obs.EvRound)
		}
		if outcome == Commit {
			s.done, s.out = true, u
			s.c.local[s.p], s.c.done[s.p], s.c.used[s.p] = u, true, s.r+1
			return true
		}
		s.r++
		if s.r == len(s.c.round) {
			panic("consensus: exceeded the preallocated rounds; see MaxRounds")
		}
		s.phase = 0
	}
	return false
}
