package consensus

import (
	"fmt"

	"repro/apram/obs"
)

// MaxRounds bounds the preallocated per-round objects. The expected
// number of rounds is a small constant (each conciliator succeeds with
// constant probability), so 64 rounds puts the exhaustion probability
// far below hardware failure; exceeding it panics rather than
// violating wait-freedom bounds silently. Round objects are built from
// registers alone, so they cannot be allocated on demand without extra
// synchronization.
const MaxRounds = 64

// Consensus is randomized wait-free binary consensus for n processes
// from atomic registers: Decide returns the same value ∈ {0, 1} to
// every process (agreement, deterministic), that value is some
// process's input (validity, deterministic), and every call terminates
// with probability 1 in a constant expected number of rounds.
type Consensus struct {
	n     int
	round []round
	local []int // cached decision per process slot (owned by the slot)
	done  []bool
	used  []int // rounds used by each slot's decision (owned by the slot)

	probe obs.Probe
}

// round is one round's objects. The conciliator — con, an adopt-commit
// object used only as an atomic publish+scan of the preferences, and
// coin — hands every process one value with constant probability: it
// preserves unanimity (if every caller brings v, every caller leaves
// with v, so an already-decided value survives) and otherwise falls
// back to the shared coin. The adopt-commit object ac then gives
// deterministic safety.
type round struct {
	con  *AdoptCommit
	coin *SharedCoin
	ac   *AdoptCommit
}

// New returns an n-process consensus object seeded for reproducible
// local randomness, preallocating MaxRounds rounds.
func New(n int, seed int64) *Consensus {
	c := &Consensus{
		n:     n,
		round: make([]round, MaxRounds),
		local: make([]int, n),
		done:  make([]bool, n),
		used:  make([]int, n),
	}
	for r := range c.round {
		c.round[r] = round{
			con:  NewAdoptCommit(n),
			coin: NewSharedCoin(n, seed+int64(r)*104729),
			ac:   NewAdoptCommit(n),
		}
	}
	return c
}

// Instrument attaches a probe to the protocol and every round's
// building blocks: register accounting flows up from the adopt-commit
// snapshots and the shared-coin counters, rounds surface as
// obs.EvRound, coin activity as obs.EvCoinStep/obs.EvCoinFlip,
// verdicts as obs.EvCommit/obs.EvAdopt, and each completed Decide as
// one obs.OpDecide. Attach before the object is shared.
func (c *Consensus) Instrument(p obs.Probe) {
	c.probe = p
	for _, rd := range c.round {
		rd.con.Instrument(p, false)
		rd.coin.Instrument(p)
		rd.ac.Instrument(p, false)
	}
}

// N returns the number of process slots.
func (c *Consensus) N() int { return c.n }

// RoundsUsed returns how many rounds slot p took to decide (0 before it
// decided). Expected to be a small constant; the distribution is
// measured by experiment E12.
func (c *Consensus) RoundsUsed(p int) int { return c.used[p] }

// Decide runs the protocol for process p with input v ∈ {0, 1} and
// returns the decision, stepping p's Stepper to completion. Calling
// Decide again on the same slot returns the cached decision.
func (c *Consensus) Decide(p, v int) int {
	if v != 0 && v != 1 {
		panic(fmt.Sprintf("consensus: input %d must be 0 or 1", v))
	}
	if c.done[p] {
		return c.local[p]
	}
	if c.probe != nil {
		c.probe.OpBegin(p, obs.OpDecide)
	}
	s := NewStepper(c, p, v)
	for !s.Step() {
	}
	if c.probe != nil {
		c.probe.OpDone(p, obs.OpDecide)
	}
	return s.out
}
