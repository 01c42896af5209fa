package agreement

import (
	"fmt"

	"repro/apram/obs"
	"repro/internal/pram/native"
)

// Native is the goroutine-ready approximate agreement object. Each
// process slot steps its own Figure 2 Machine, the body the simulator,
// the Lemma 6 adversary and the exhaustive enumeration check, on
// pram/native atomic registers laid out by Layout. Each process index
// owns its register and its machine, so a given index must be used by
// at most one goroutine at a time; distinct indices may run
// concurrently from different goroutines, and every operation is
// wait-free — it completes in a bounded number of its own steps
// regardless of what other goroutines do (including stopping for
// ever).
type Native struct {
	eps float64
	mem *native.Mem
	mcs []Machine

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
	lay := Layout{N: n}
	a := &Native{eps: eps, mem: native.NewMem(n, n), mcs: make([]Machine, n)}
	lay.Install(a.mem)
	for p := range a.mcs {
		a.mcs[p] = newMachine(p, eps, lay)
	}
	return a
}

// Instrument attaches a probe: exact register read/write counts, an
// obs.EvRound per preference-halving round, an obs.EvRetry per pass
// that could neither return nor advance, and an obs.OpAgree per
// completed Output. Attach before the object is shared.
func (a *Native) Instrument(p obs.Probe) {
	a.probe = p
	for i := range a.mcs {
		a.mcs[i].Instrument(p)
	}
}

// N returns the number of process slots.
func (a *Native) N() int { return len(a.mcs) }

// Eps returns the agreement tolerance ε.
func (a *Native) Eps() float64 { return a.eps }

// Input records process p's input value x. Only the first Input by a
// given process has any effect, matching lines 1–5 of Figure 2.
func (a *Native) Input(p int, x float64) {
	mc := a.machine(p)
	mc.Input(x)
	a.run(p, mc)
}

// Output runs the wait-free approximate agreement protocol for process
// p and returns its decision. Output panics if p has not called Input:
// the operation's precondition (Figure 1) is X ≠ ∅, and this
// implementation requires the caller to have contributed.
func (a *Native) Output(p int) float64 {
	mc := a.machine(p)
	mc.Output()
	if a.probe != nil {
		a.probe.OpBegin(p, obs.OpAgree)
	}
	a.run(p, mc)
	if a.probe != nil {
		a.probe.OpDone(p, obs.OpAgree)
	}
	return mc.Result()
}

// Agree is the common one-shot pattern: record x, then decide.
func (a *Native) Agree(p int, x float64) float64 {
	a.Input(p, x)
	return a.Output(p)
}

func (a *Native) machine(p int) *Machine {
	if p < 0 || p >= len(a.mcs) {
		panic(fmt.Sprintf("agreement: process %d out of range [0,%d)", p, len(a.mcs)))
	}
	return &a.mcs[p]
}

// run steps p's machine through its operation and reports the register
// accesses it made, read off the memory's counters.
func (a *Native) run(p int, mc *Machine) {
	reads, writes := a.mem.CountsBy(p)
	for !mc.Done() {
		mc.Step(a.mem)
	}
	if a.probe != nil {
		r, w := a.mem.CountsBy(p)
		a.probe.RegReads(p, int(r-reads))
		a.probe.RegWrites(p, int(w-writes))
	}
}
