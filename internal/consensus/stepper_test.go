package consensus

import (
	"math/rand"
	"testing"

	"repro/apram/obs"
)

// This file drives the full consensus protocol under DETERMINISTIC
// adversarial schedules at operation granularity. Every building block
// the protocol uses (snapshot scans inside adopt-commit, counter
// operations inside the shared coin) is linearizable, so interleaving
// at whole-operation granularity explores every distinguishable
// behaviour — goroutine tests cover "some" schedules, this harness
// covers chosen ones, including crashes at every point.

// runSchedule drives the steppers under a schedule function until all
// live processes decide or the step budget runs out. crashAt[p] (when
// ≥ 0) crashes process p after that many of its own steps.
func runSchedule(t *testing.T, n int, inputs []int, seed int64,
	pick func(live []int) int, crashAt []int) []int {
	t.Helper()
	c := New(n, seed)
	steppers := make([]*Stepper, n)
	stepsTaken := make([]int, n)
	for p := 0; p < n; p++ {
		steppers[p] = NewStepper(c, p, inputs[p])
	}
	budget := 1_000_000
	for {
		var live []int
		for p := 0; p < n; p++ {
			crashed := crashAt != nil && crashAt[p] >= 0 && stepsTaken[p] >= crashAt[p]
			if !steppers[p].Done() && !crashed {
				live = append(live, p)
			}
		}
		if len(live) == 0 {
			break
		}
		if budget == 0 {
			t.Fatal("schedule did not terminate within budget")
		}
		budget--
		p := pick(live)
		steppers[p].Step()
		stepsTaken[p]++
	}
	outs := make([]int, n)
	for p := 0; p < n; p++ {
		if steppers[p].Done() {
			outs[p] = steppers[p].Output()
		} else {
			outs[p] = -1 // crashed before deciding
		}
	}
	return outs
}

// checkSafety verifies agreement among deciders and validity.
func checkSafety(t *testing.T, inputs, outs []int, label string) {
	t.Helper()
	decided := -1
	for p, o := range outs {
		if o == -1 {
			continue
		}
		if o != 0 && o != 1 {
			t.Fatalf("%s: process %d decided %d", label, p, o)
		}
		if decided == -1 {
			decided = o
		} else if o != decided {
			t.Fatalf("%s: disagreement: %v (inputs %v)", label, outs, inputs)
		}
	}
	if decided == -1 {
		return
	}
	valid := false
	for _, in := range inputs {
		if in == decided {
			valid = true
		}
	}
	if !valid {
		t.Fatalf("%s: decided %d not among inputs %v", label, decided, inputs)
	}
}

// TestStepperSequentialSolo: a lone process decides its own input.
func TestStepperSequentialSolo(t *testing.T) {
	outs := runSchedule(t, 3, []int{1, 0, 0}, 4,
		func(live []int) int { return live[0] }, []int{-1, 0, 0})
	if outs[0] != 1 {
		t.Fatalf("solo decider got %d, want its input 1", outs[0])
	}
}

// TestStepperRandomSchedules: many random op-granular schedules with
// mixed inputs.
func TestStepperRandomSchedules(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(seed%4)
		inputs := make([]int, n)
		for p := range inputs {
			inputs[p] = rng.Intn(2)
		}
		outs := runSchedule(t, n, inputs, seed,
			func(live []int) int { return live[rng.Intn(len(live))] }, nil)
		checkSafety(t, inputs, outs, "random")
		for p, o := range outs {
			if o == -1 {
				t.Fatalf("seed %d: process %d never decided", seed, p)
			}
		}
	}
}

// TestStepperCrashesEverywhere: crash one process after k of its own
// operations, for every k in a prefix — survivors must still decide
// and agree (with the crashed one if it decided first).
func TestStepperCrashesEverywhere(t *testing.T) {
	for k := 0; k < 12; k++ {
		for victim := 0; victim < 3; victim++ {
			rng := rand.New(rand.NewSource(int64(k*10 + victim)))
			inputs := []int{1, 0, 1}
			crash := []int{-1, -1, -1}
			crash[victim] = k
			outs := runSchedule(t, 3, inputs, int64(k*7+victim),
				func(live []int) int { return live[rng.Intn(len(live))] }, crash)
			checkSafety(t, inputs, outs, "crash")
			for p, o := range outs {
				if p != victim && o == -1 {
					t.Fatalf("k=%d victim=%d: survivor %d never decided", k, victim, p)
				}
			}
		}
	}
}

// TestStepperAdversarialAlternation: pathological schedules — strict
// alternation, one-at-a-time bursts, priority inversion — all must
// preserve safety.
func TestStepperAdversarialAlternation(t *testing.T) {
	schedules := map[string]func(step int) func(live []int) int{
		"alternate": func(step int) func([]int) int {
			i := 0
			return func(live []int) int { i++; return live[i%len(live)] }
		},
		"firstAlways": func(step int) func([]int) int {
			return func(live []int) int { return live[0] }
		},
		"lastAlways": func(step int) func([]int) int {
			return func(live []int) int { return live[len(live)-1] }
		},
		"burst16": func(step int) func([]int) int {
			i, cur := 0, 0
			return func(live []int) int {
				if i%16 == 0 {
					cur = (cur + 1) % len(live)
				}
				i++
				return live[cur%len(live)]
			}
		},
	}
	for name, mk := range schedules {
		inputs := []int{0, 1, 1, 0}
		outs := runSchedule(t, 4, inputs, 5, mk(0), nil)
		checkSafety(t, inputs, outs, name)
		for p, o := range outs {
			if o == -1 {
				t.Fatalf("%s: process %d never decided", name, p)
			}
		}
	}
}

// TestStepperMatchesDecide: Decide steps the Stepper, so processes
// run one at a time in slot order, each by Decide on one object and
// alone under a stepper on another of the same seed, must decide alike
// in the same rounds, with the same coin steps and round events.
func TestStepperMatchesDecide(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(seed%4)
		inputs := make([]int, n)
		for p := range inputs {
			inputs[p] = rng.Intn(2)
		}
		dc, sc := New(n, seed), New(n, seed)
		dst, sst := obs.NewStats(n), obs.NewStats(n)
		dc.Instrument(dst)
		sc.Instrument(sst)
		for p, v := range inputs {
			got := dc.Decide(p, v)
			st := NewStepper(sc, p, v)
			for !st.Step() {
			}
			if st.Output() != got || sc.RoundsUsed(p) != dc.RoundsUsed(p) {
				t.Fatalf("seed %d inputs %v: process %d stepper decided %d in %d rounds, Decide %d in %d",
					seed, inputs, p, st.Output(), sc.RoundsUsed(p), got, dc.RoundsUsed(p))
			}
			for _, e := range []obs.Event{obs.EvCoinStep, obs.EvRound} {
				if a, b := sst.EventsBy(p, e), dst.EventsBy(p, e); a != b {
					t.Fatalf("seed %d inputs %v: process %d stepper emitted %d %v events, Decide %d",
						seed, inputs, p, a, e, b)
				}
			}
		}
	}
}
