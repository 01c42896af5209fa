package consensus

import (
	"math/rand"

	"repro/apram/obs"
	"repro/internal/types"
)

// SharedCoin is the Aspnes–Herlihy shared coin (the paper's reference
// [6]): a random walk on a wait-free shared counter. Each process
// repeatedly increments or decrements by one according to a local coin
// flip and reads the counter; it outputs 1 when the walk has drifted
// past +barrier and 0 past −barrier, with barrier = 2n.
//
// The coin is "weak": with constant probability every process sees the
// same exit side, and in the remaining executions outputs may differ —
// which is harmless, because the consensus protocol's safety never
// depends on the coin. Every Flip terminates with probability 1 and in
// O(n·barrier) expected counter operations.
type SharedCoin struct {
	counter *types.DirectCounter
	barrier int64
	rng     []*rand.Rand // one per process slot, owned by that slot

	probe obs.Probe
}

// NewSharedCoin returns an n-process shared coin. The seed makes each
// slot's local flips reproducible.
func NewSharedCoin(n int, seed int64) *SharedCoin {
	c := &SharedCoin{
		counter: types.NewDirectCounter(n),
		barrier: int64(2 * n),
		rng:     make([]*rand.Rand, n),
	}
	for p := range c.rng {
		c.rng[p] = rand.New(rand.NewSource(seed + int64(p)*7919))
	}
	return c
}

// Instrument attaches a probe: register accounting flows from the
// walk's wait-free counter, each walk iteration surfaces as
// obs.EvCoinStep and each completed Flip as obs.EvCoinFlip.
func (c *SharedCoin) Instrument(p obs.Probe) {
	c.probe = p
	c.counter.Instrument(p, false)
}

// Flip runs the random walk for process p and returns 0 or 1.
func (c *SharedCoin) Flip(p int) int {
	for {
		c.move(p)
		if out, done := c.look(p); done {
			return out
		}
	}
}

// move is the first of a walk iteration's two counter operations: an
// increment or decrement by p's local coin flip.
func (c *SharedCoin) move(p int) {
	if c.rng[p].Intn(2) == 0 {
		c.counter.Inc(p, 1)
	} else {
		c.counter.Dec(p, 1)
	}
}

// look is the second: it reads the counter and reports the coin's
// value once the walk has drifted past a barrier.
func (c *SharedCoin) look(p int) (out int, done bool) {
	v := c.counter.Read(p)
	if c.probe != nil {
		c.probe.Event(p, obs.EvCoinStep)
	}
	switch {
	case v >= c.barrier:
		out = 1
	case v <= -c.barrier:
		out = 0
	default:
		return 0, false
	}
	if c.probe != nil {
		c.probe.Event(p, obs.EvCoinFlip)
	}
	return out, true
}
