package agreement

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/apram/obs"
	"repro/internal/pram"
	"repro/internal/sched"
)

// TestQuickSpecHolds: for arbitrary inputs, tolerances, process counts
// and schedules, the Figure 1 postconditions and the Theorem 5 bound
// hold. agreement.Run panics internally on a spec violation, so this
// property reduces to "Run succeeds and stays under the bound".
func TestQuickSpecHolds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		eps := math.Pow(10, -float64(rng.Intn(5)))
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = rng.Float64()*200 - 100
		}
		var s pram.Scheduler
		switch rng.Intn(3) {
		case 0:
			s = sched.NewRoundRobin()
		case 1:
			s = sched.NewRandom(seed)
		default:
			s = sched.NewBursty(seed, 1+rng.Intn(20))
		}
		sys := NewSystem(inputs, eps)
		out, err := Run(sys, s, inputs, eps, 0)
		if err != nil {
			return false
		}
		return out.MaxSteps() <= uint64(StepBound(n, out.InputRange+1, eps))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickCrashSubsetsStillAgree: crash a random subset mid-run; all
// survivors finish and agree within eps.
func TestQuickCrashSubsetsStillAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		eps := 0.01
		inputs := make([]float64, n)
		for i := range inputs {
			inputs[i] = rng.Float64() * 50
		}
		alive := make(map[int]bool)
		for p := 0; p < n; p++ {
			alive[p] = rng.Intn(3) != 0
		}
		anyAlive := false
		for _, a := range alive {
			anyAlive = anyAlive || a
		}
		if !anyAlive {
			return true
		}
		// Crashed processes take a random prefix of steps, then stop.
		budget := make(map[int]int)
		for p := 0; p < n; p++ {
			if !alive[p] {
				budget[p] = rng.Intn(10)
			}
		}
		inner := sched.NewRandom(seed * 3)
		s := sched.Func(func(running []int) int {
			var ok []int
			for _, p := range running {
				if alive[p] || budget[p] > 0 {
					ok = append(ok, p)
				}
			}
			if len(ok) == 0 {
				return -1
			}
			p := inner.Next(ok)
			if !alive[p] {
				budget[p]--
			}
			return p
		})
		sys := NewSystem(inputs, eps)
		err := sys.Run(s, 5_000_000)
		if err != nil && err != pram.ErrStopped {
			return false
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for p := 0; p < n; p++ {
			mc := sys.Machines[p].(*Machine)
			if alive[p] && !mc.Done() {
				return false // survivor blocked: wait-freedom broken
			}
			if mc.Done() {
				lo = math.Min(lo, mc.Result())
				hi = math.Max(hi, mc.Result())
			}
		}
		return hi <= 50 && lo >= 0 && (lo > hi || hi-lo < eps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickNativeMatchesMachine: for one random sequential script, in
// which each process inputs once and then outputs one or more times,
// the machines stepped on the simulator and Native, which steps the
// same machines on atomic registers, must return the same values and
// make the same register reads and writes per process, and every
// output must stay within Theorem 5's bound (a process's input counts
// toward its first output).
func TestQuickNativeMatchesMachine(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		eps := math.Pow(10, -float64(rng.Intn(4)))
		inputs := make([]float64, n)
		lo, hi := math.Inf(1), math.Inf(-1)
		var script []int // process p's first turn is its Input
		for p := range inputs {
			inputs[p] = float64(rng.Intn(2000)) / 10
			lo, hi = math.Min(lo, inputs[p]), math.Max(hi, inputs[p])
			for k := 0; k < 2+rng.Intn(3); k++ {
				script = append(script, p)
			}
		}
		rng.Shuffle(len(script), func(i, j int) { script[i], script[j] = script[j], script[i] })

		lay := Layout{N: n}
		mem := pram.NewMem(n, n)
		lay.Install(mem)
		mcs := make([]Machine, n)
		for p := range mcs {
			mcs[p] = newMachine(p, eps, lay)
		}
		nat := NewNative(n, eps)
		st := obs.NewStats(n)
		nat.Instrument(st)
		bound := uint64(StepBound(n, hi-lo, eps))
		input := make([]bool, n)
		spent := make([]uint64, n)
		for _, p := range script {
			mc, first := &mcs[p], !input[p]
			input[p] = true
			before := mem.Counters().AccessesBy(p)
			if first {
				mc.Input(inputs[p])
			} else {
				mc.Output()
			}
			for !mc.Done() {
				mc.Step(mem)
			}
			spent[p] += mem.Counters().AccessesBy(p) - before
			if first {
				nat.Input(p, inputs[p])
				continue
			}
			if y := nat.Output(p); y != mc.Result() {
				t.Logf("seed %d: process %d output %v natively, %v simulated", seed, p, y, mc.Result())
				return false
			}
			if spent[p] > bound {
				t.Logf("seed %d: process %d output took %d accesses, bound %d", seed, p, spent[p], bound)
				return false
			}
			spent[p] = 0
		}
		for p, sl := range st.Snapshot().PerSlot {
			if r, w := mem.CountsBy(p); sl.Reads != r || sl.Writes != w {
				t.Logf("seed %d: process %d made %d/%d reads/writes natively, %d/%d simulated",
					seed, p, sl.Reads, sl.Writes, r, w)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
