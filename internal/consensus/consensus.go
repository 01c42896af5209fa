package consensus

import (
	"fmt"

	"repro/apram/obs"
)

// MaxRounds bounds the preallocated per-round objects. The expected
// number of rounds is a small constant (each conciliator succeeds with
// constant probability), so 64 rounds puts the exhaustion probability
// far below hardware failure; exceeding it panics rather than
// violating wait-freedom bounds silently.
const MaxRounds = 64

// Consensus is randomized wait-free binary consensus for n processes
// from atomic registers: Decide returns the same value ∈ {0, 1} to
// every process (agreement, deterministic), that value is some
// process's input (validity, deterministic), and every call terminates
// with probability 1 in a constant expected number of rounds.
type Consensus struct {
	n      int
	ac     []*AdoptCommit
	con    []*conciliator
	local  []int // cached decision per process slot (owned by the slot)
	done   []bool
	rounds []int // rounds used by each slot's Decide (owned by the slot)

	probe obs.Probe
}

// New returns an n-process consensus object seeded for reproducible
// local randomness, preallocating MaxRounds rounds.
func New(n int, seed int64) *Consensus { return NewWithRounds(n, seed, MaxRounds) }

// NewWithRounds preallocates only the given number of rounds. Because
// round objects are built from registers alone, they cannot be
// allocated on demand without extra synchronization, so they are built
// up front; callers that create many consensus objects can trade
// memory for a (still astronomically small at, say, 24 rounds) risk of
// round exhaustion.
func NewWithRounds(n int, seed int64, rounds int) *Consensus {
	if rounds <= 0 || rounds > MaxRounds {
		rounds = MaxRounds
	}
	c := &Consensus{
		n:      n,
		ac:     make([]*AdoptCommit, rounds),
		con:    make([]*conciliator, rounds),
		local:  make([]int, n),
		done:   make([]bool, n),
		rounds: make([]int, n),
	}
	for r := 0; r < rounds; r++ {
		c.ac[r] = NewAdoptCommit(n)
		c.con[r] = newConciliator(n, seed+int64(r)*104729)
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
	for r := range c.ac {
		c.ac[r].Instrument(p, false)
		c.con[r].instrument(p)
	}
}

// N returns the number of process slots.
func (c *Consensus) N() int { return c.n }

// RoundsUsed returns how many rounds slot p's Decide took (0 before it
// decided). Expected to be a small constant; the distribution is
// measured by experiment E12.
func (c *Consensus) RoundsUsed(p int) int { return c.rounds[p] }

// Decide runs the protocol for process p with input v ∈ {0, 1} and
// returns the decision. Calling Decide again on the same slot returns
// the cached decision.
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
	for r := 0; r < len(c.ac); r++ {
		// Conciliate first: with constant probability all processes
		// leave with one value, and unanimity is preserved exactly.
		v = c.con[r].apply(p, v)
		// Then adopt-commit: deterministic safety.
		outcome, u := c.ac[r].Apply(p, v)
		v = u
		if c.probe != nil {
			c.probe.Event(p, obs.EvRound)
		}
		if outcome == Commit {
			c.local[p] = v
			c.done[p] = true
			c.rounds[p] = r + 1
			if c.probe != nil {
				c.probe.OpDone(p, obs.OpDecide)
			}
			return v
		}
	}
	panic("consensus: exceeded the preallocated rounds; see package doc")
}
