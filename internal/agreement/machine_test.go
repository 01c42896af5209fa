package agreement

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/pram"
	"repro/internal/sched"
)

func TestSingleProcessReturnsOwnInput(t *testing.T) {
	sys := NewSystem([]float64{42}, 1.0)
	out, err := Run(sys, sched.NewRoundRobin(), []float64{42}, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Results[0] != 42 {
		t.Errorf("result = %v, want 42", out.Results[0])
	}
	// input read + input write + one scan read = 3 accesses.
	if out.StepsBy[0] != 3 {
		t.Errorf("steps = %d, want 3", out.StepsBy[0])
	}
}

func TestIdenticalInputsTerminateImmediately(t *testing.T) {
	inputs := []float64{7, 7, 7, 7}
	sys := NewSystem(inputs, 0.5)
	out, err := Run(sys, sched.NewRoundRobin(), inputs, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	for p, r := range out.Results {
		if r != 7 {
			t.Errorf("process %d returned %v, want 7", p, r)
		}
		if out.Rounds[p] != 0 {
			t.Errorf("process %d advanced %d rounds, want 0", p, out.Rounds[p])
		}
	}
}

func TestTwoProcessConvergence(t *testing.T) {
	for _, eps := range []float64{0.5, 0.1, 1e-3} {
		inputs := []float64{0, 1}
		sys := NewSystem(inputs, eps)
		out, err := Run(sys, sched.NewRoundRobin(), inputs, eps, 0)
		if err != nil {
			t.Fatalf("eps=%v: %v", eps, err)
		}
		if out.OutputRange >= eps {
			t.Errorf("eps=%v: output range %v", eps, out.OutputRange)
		}
	}
}

// TestSpecUnderRandomSchedules is the core property test: for many
// process counts, tolerances and random schedules, the Figure 1
// postconditions hold and the step count respects Theorem 5.
func TestSpecUnderRandomSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 3, 5, 8} {
		for _, eps := range []float64{0.25, 0.03} {
			for seed := int64(0); seed < 8; seed++ {
				inputs := make([]float64, n)
				for i := range inputs {
					inputs[i] = rng.Float64() * 100
				}
				sys := NewSystem(inputs, eps)
				out, err := Run(sys, sched.NewRandom(seed), inputs, eps, 0)
				if err != nil {
					t.Fatalf("n=%d eps=%v seed=%d: %v", n, eps, seed, err)
				}
				bound := uint64(StepBound(n, out.InputRange, eps))
				if got := out.MaxSteps(); got > bound {
					t.Errorf("n=%d eps=%v seed=%d: %d steps > Theorem 5 bound %d",
						n, eps, seed, got, bound)
				}
			}
		}
	}
}

// TestLemma3RangeHalves checks that the written preference range
// shrinks by at least half every round, under several schedulers.
func TestLemma3RangeHalves(t *testing.T) {
	scheds := map[string]func() pram.Scheduler{
		"roundrobin": func() pram.Scheduler { return sched.NewRoundRobin() },
		"random":     func() pram.Scheduler { return sched.NewRandom(99) },
		"bursty":     func() pram.Scheduler { return sched.NewBursty(5, 6) },
	}
	inputs := []float64{0, 100, 13, 77, 42}
	for name, mk := range scheds {
		sys := NewSystem(inputs, 1e-4)
		var tr RoundTracker
		tr.Attach(sys.Mem)
		if _, err := Run(sys, mk(), inputs, 1e-4, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, r := range tr.ShrinkRatios() {
			if r > 0.5+1e-12 {
				t.Errorf("%s: round %d shrink ratio %v > 1/2 (Lemma 3 violated)", name, i+2, r)
			}
		}
		if tr.MaxRound() < 2 {
			t.Errorf("%s: run too short to observe shrinking (max round %d)", name, tr.MaxRound())
		}
	}
}

// TestWaitFreeUnderCrash: a crashed process must not block the others
// (the defining property of wait-freedom).
func TestWaitFreeUnderCrash(t *testing.T) {
	inputs := []float64{0, 50, 100}
	for victim := 0; victim < 3; victim++ {
		for after := uint64(0); after < 6; after++ {
			sys := NewSystem(inputs, 0.01)
			cr := &sched.Crash{Inner: sched.NewRoundRobin(), Victim: victim, After: after}
			err := sys.Run(cr, 200_000)
			// The run ends when everyone but the victim finished.
			if err != nil && err != pram.ErrStopped {
				t.Fatalf("victim=%d after=%d: %v", victim, after, err)
			}
			var results []float64
			for p, mc := range sys.Machines {
				if p == victim && !mc.Done() {
					continue
				}
				if !mc.Done() {
					t.Fatalf("victim=%d after=%d: survivor %d did not finish", victim, after, p)
				}
				results = append(results, mc.(*Machine).Result())
			}
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, r := range results {
				lo, hi = math.Min(lo, r), math.Max(hi, r)
				if r < 0 || r > 100 {
					t.Errorf("victim=%d after=%d: output %v outside input range", victim, after, r)
				}
			}
			if hi-lo >= 0.01 {
				t.Errorf("victim=%d after=%d: survivors disagree by %v", victim, after, hi-lo)
			}
		}
	}
}

// TestSleepyProcessStillAgrees: one process is starved for a long
// stretch, then wakes; its late output must still agree with the
// values already returned (Lemma 4).
func TestSleepyProcessStillAgrees(t *testing.T) {
	inputs := []float64{0, 1, 0.5}
	eps := 1e-3
	sys := NewSystem(inputs, eps)
	// Run processes 1 and 2 to completion first; process 0 never runs.
	pr := sched.Func(func(running []int) int {
		for _, p := range running {
			if p != 0 {
				return p
			}
		}
		return -1
	})
	if err := sys.Run(pr, 100_000); err != pram.ErrStopped {
		t.Fatalf("expected ErrStopped when only sleeper remains, got %v", err)
	}
	// Now the sleeper wakes up alone.
	if err := sys.RunSolo(0, 100_000); err != nil {
		t.Fatal(err)
	}
	var lo, hi = math.Inf(1), math.Inf(-1)
	for _, mc := range sys.Machines {
		r := mc.(*Machine).Result()
		lo, hi = math.Min(lo, r), math.Max(hi, r)
	}
	if hi-lo >= eps {
		t.Errorf("late output disagrees: range %v >= eps %v", hi-lo, eps)
	}
}

func TestInputIsIdempotent(t *testing.T) {
	n := 2
	mem := pram.NewMem(n, n)
	lay := Layout{Base: 0, N: n}
	lay.Install(mem)
	// Process 0 runs input twice (two machines in sequence would
	// re-input); emulate by running one machine's input phase, then a
	// fresh machine for the same process with a different x.
	m1 := NewMachine(0, 10, 1, lay)
	m1.Step(mem) // read
	m1.Step(mem) // write {10, round 1}
	m2 := NewMachine(0, 99, 1, lay)
	m2.Step(mem) // read: sees valid entry, skips write
	e := mem.Peek(lay.Reg(0)).(Entry)
	if e.Prefer != 10 || e.Round != 1 {
		t.Errorf("entry = %+v, want prefer 10 round 1", e)
	}
}

func TestMachineCloneIndependence(t *testing.T) {
	sys := NewSystem([]float64{0, 1}, 0.1)
	sys.Step(0) // input read
	sys.Step(0) // input write
	sys.Step(0) // first scan read fills view[0]
	orig := sys.Machines[0].(*Machine)
	cl := orig.Clone().(*Machine)
	// Mutate the original's view; the clone's copy must be isolated.
	orig.view[0] = Entry{Round: 99, Prefer: -1, Valid: true}
	if cl.view[0].Round == 99 {
		t.Error("clone shares the view slice with the original")
	}
	if cl.ph != orig.ph || cl.i != orig.i || cl.mine != orig.mine {
		t.Error("clone did not copy scalar state")
	}
}

func TestMachineDeterminism(t *testing.T) {
	run := func() Outcome {
		inputs := []float64{3, 9, 27}
		sys := NewSystem(inputs, 0.05)
		out, err := Run(sys, sched.NewRandom(42), inputs, 0.05, 0)
		if err != nil {
			panic(err)
		}
		return out
	}
	a, b := run(), run()
	for p := range a.Results {
		if a.Results[p] != b.Results[p] || a.StepsBy[p] != b.StepsBy[p] {
			t.Fatalf("nondeterministic run: %+v vs %+v", a, b)
		}
	}
}

func TestOutputBeforeInputPanics(t *testing.T) {
	m := newMachine(0, 1, Layout{N: 1})
	defer func() {
		if recover() == nil {
			t.Error("expected panic on output before input")
		}
	}()
	m.Output()
}

func TestStepBoundMonotone(t *testing.T) {
	if StepBound(2, 1, 2) <= 0 {
		t.Error("bound must be positive even when delta <= eps")
	}
	if StepBound(4, 1000, 1) <= StepBound(4, 10, 1) {
		t.Error("bound must grow with delta/eps")
	}
	if StepBound(8, 100, 1) <= StepBound(2, 100, 1) {
		t.Error("bound must grow with n")
	}
}

func TestLowerBoundValues(t *testing.T) {
	if got := LowerBound(1, 1.0/27); got != 3 {
		t.Errorf("LowerBound(1, 1/27) = %d, want 3", got)
	}
	if got := LowerBound(1, 2); got != 0 {
		t.Errorf("LowerBound(1, 2) = %d, want 0", got)
	}
}

func TestNewMachineValidation(t *testing.T) {
	lay := Layout{Base: 0, N: 2}
	for _, tc := range []struct {
		proc int
		eps  float64
	}{{0, 0}, {0, -1}, {-1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMachine(%d, eps=%v) did not panic", tc.proc, tc.eps)
				}
			}()
			NewMachine(tc.proc, 0, tc.eps, lay)
		}()
	}
}
