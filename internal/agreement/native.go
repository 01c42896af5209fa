package agreement

import (
	"fmt"
	"sync/atomic"

	"repro/apram/obs"
)

// Native is the goroutine-ready implementation of the approximate
// agreement object: the same algorithm as Figure 2, with the simulated
// registers replaced by atomic pointers. Each process index owns its
// register; distinct process indices may run concurrently from
// different goroutines, and every operation is wait-free — it completes
// in a bounded number of its own steps regardless of what other
// goroutines do (including stopping for ever).
type Native struct {
	eps  float64
	regs []atomic.Pointer[Entry]

	probe obs.Probe // nil when uninstrumented
}

// NewNative returns an n-process approximate agreement object with
// tolerance eps > 0.
func NewNative(n int, eps float64) *Native {
	if n <= 0 {
		panic("agreement: need at least one process")
	}
	if eps <= 0 {
		panic("agreement: eps must be positive")
	}
	a := &Native{eps: eps, regs: make([]atomic.Pointer[Entry], n)}
	zero := &Entry{}
	for i := range a.regs {
		a.regs[i].Store(zero)
	}
	return a
}

// Instrument attaches a probe: exact register read/write counts, an
// obs.EvRound per preference-halving round, an obs.EvRetry per pass
// that could neither return nor advance, and an obs.OpAgree per
// completed Output. Attach before the object is shared.
func (a *Native) Instrument(p obs.Probe) { a.probe = p }

// N returns the number of process slots.
func (a *Native) N() int { return len(a.regs) }

// Eps returns the agreement tolerance ε.
func (a *Native) Eps() float64 { return a.eps }

// Input records process p's input value x. Only the first Input by a
// given process has any effect, matching lines 1–5 of Figure 2.
func (a *Native) Input(p int, x float64) {
	a.check(p)
	if e := a.regs[p].Load(); e.Valid {
		if a.probe != nil {
			a.probe.RegReads(p, 1)
		}
		return
	}
	a.regs[p].Store(&Entry{Round: 1, Prefer: x, Valid: true})
	if a.probe != nil {
		a.probe.RegReads(p, 1)
		a.probe.RegWrites(p, 1)
	}
}

// Output runs the wait-free approximate agreement protocol for process
// p and returns its decision. Output panics if p has not called Input:
// the operation's precondition (Figure 1) is X ≠ ∅, and this
// implementation requires the caller to have contributed.
func (a *Native) Output(p int) float64 {
	a.check(p)
	if a.probe != nil {
		a.probe.OpBegin(p, obs.OpAgree)
	}
	mine := *a.regs[p].Load()
	if !mine.Valid {
		panic("agreement: Output before Input")
	}
	// Register accesses measured at their callsites; reported when the
	// operation returns.
	reads, writes := 1, 0
	advance := false
	view := make([]Entry, len(a.regs))
	for {
		for i := range a.regs {
			view[i] = *a.regs[i].Load()
		}
		reads += len(a.regs)
		done, next := decide(view, mine, a.eps, advance)
		switch {
		case done:
			if a.probe != nil {
				a.probe.RegReads(p, reads)
				a.probe.RegWrites(p, writes)
				a.probe.OpDone(p, obs.OpAgree)
			}
			return mine.Prefer
		case next.Valid:
			mine = next
			a.regs[p].Store(&Entry{Round: next.Round, Prefer: next.Prefer, Valid: true})
			writes++
			if a.probe != nil {
				a.probe.Event(p, obs.EvRound)
			}
			advance = false
		default:
			if a.probe != nil {
				a.probe.Event(p, obs.EvRetry)
			}
			advance = true
		}
	}
}

// Agree is the common one-shot pattern: record x, then decide.
func (a *Native) Agree(p int, x float64) float64 {
	a.Input(p, x)
	return a.Output(p)
}

func (a *Native) check(p int) {
	if p < 0 || p >= len(a.regs) {
		panic(fmt.Sprintf("agreement: process %d out of range [0,%d)", p, len(a.regs)))
	}
}
