package snapshot

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/lattice"
	"repro/internal/pram"
	"repro/internal/pram/native"
	"repro/internal/sched"
)

// newSimSystem builds a system of n ScanMachines over lat, each with
// an empty script.
func newSimSystem(n int, lat lattice.Lattice, optimized bool) (*pram.System, []*ScanMachine) {
	lay := Layout{Base: 0, N: n}
	mem := pram.NewMem(lay.Regs(), n)
	lay.Install(mem, lat)
	ms := make([]*ScanMachine, n)
	pms := make([]pram.Machine, n)
	for p := 0; p < n; p++ {
		ms[p] = NewScanMachine(p, lay, lat, optimized)
		pms[p] = ms[p]
	}
	return pram.NewSystem(mem, pms), ms
}

// TestScanOperationCounts is the E5 core assertion: each Scan performs
// exactly the Section 6.2 number of reads and writes, for both
// variants, at every n, regardless of schedule position.
func TestScanOperationCounts(t *testing.T) {
	for _, optimized := range []bool{false, true} {
		for n := 1; n <= 8; n++ {
			sys, ms := newSimSystem(n, lattice.MaxInt{}, optimized)
			// Three ops per process to confirm per-op counts are
			// stable across repeated operations.
			for p := 0; p < n; p++ {
				for k := 0; k < 3; k++ {
					ms[p].Enqueue(int64(p*10 + k))
				}
			}
			for p := 0; p < n; p++ {
				for k := 0; k < 3; k++ {
					before := sys.Mem.Counters()
					for len(ms[p].Results()) == k {
						sys.Step(p)
					}
					d := sys.Mem.Counters().Sub(before)
					wantR, wantW := LiteralReads(n), LiteralWrites(n)
					if optimized {
						wantR, wantW = OptimizedReads(n), OptimizedWrites(n)
					}
					if d.Reads != wantR || d.Writes != wantW {
						t.Errorf("opt=%v n=%d p=%d op=%d: %d reads %d writes, want %d/%d",
							optimized, n, p, k, d.Reads, d.Writes, wantR, wantW)
					}
				}
			}
		}
	}
}

// TestScanCountsScheduleIndependent: interleaving other processes
// between a process's steps must not change its per-op access counts
// (the access sequence is static).
func TestScanCountsScheduleIndependent(t *testing.T) {
	n := 4
	sys, ms := newSimSystem(n, lattice.MaxInt{}, true)
	for p := 0; p < n; p++ {
		ms[p].Enqueue(int64(p))
	}
	perProc := make([]pram.Counters, n)
	base := make([]pram.Counters, n)
	for p := 0; p < n; p++ {
		base[p] = sys.Mem.Counters()
		_ = base
	}
	start := sys.Mem.Counters()
	if err := sys.Run(sched.NewRandom(11), 0); err != nil {
		t.Fatal(err)
	}
	total := sys.Mem.Counters().Sub(start)
	for p := 0; p < n; p++ {
		perProc[p] = total
		if got := total.ReadsBy[p]; got != OptimizedReads(n) {
			t.Errorf("p=%d reads %d, want %d", p, got, OptimizedReads(n))
		}
		if got := total.WritesBy[p]; got != OptimizedWrites(n) {
			t.Errorf("p=%d writes %d, want %d", p, got, OptimizedWrites(n))
		}
	}
}

// opTiming records one completed scan with its real-time interval in
// scheduler steps.
type opTiming struct {
	proc, idx  int
	start, end int
	result     any
}

// runTimed drives the system under schedule fn, recording per-op
// real-time intervals.
func runTimed(sys *pram.System, ms []*ScanMachine, s pram.Scheduler, maxSteps int) ([]opTiming, error) {
	var ops []opTiming
	n := len(ms)
	completed := make([]int, n)
	startStep := make([]int, n)
	for p := range startStep {
		startStep[p] = -1
	}
	step := 0
	for !sys.Done() {
		if maxSteps > 0 && step >= maxSteps {
			return ops, pram.ErrStepLimit
		}
		running := sys.Running()
		p := s.Next(running)
		if p == -1 {
			return ops, pram.ErrStopped
		}
		if startStep[p] == -1 {
			startStep[p] = step
		}
		sys.Step(p)
		if got := len(ms[p].Results()); got > completed[p] {
			ops = append(ops, opTiming{
				proc: p, idx: completed[p],
				start: startStep[p], end: step,
				result: ms[p].Results()[completed[p]],
			})
			completed[p] = got
			startStep[p] = -1
		}
		step++
	}
	return ops, nil
}

// TestLemma32Comparability: any two scan results are comparable in the
// lattice, under many random schedules.
func TestLemma32Comparability(t *testing.T) {
	lat := lattice.SetUnion{}
	for _, optimized := range []bool{false, true} {
		for seed := int64(0); seed < 10; seed++ {
			n := 3 + int(seed)%3
			sys, ms := newSimSystem(n, lat, optimized)
			rng := rand.New(rand.NewSource(seed))
			for p := 0; p < n; p++ {
				for k := 0; k < 4; k++ {
					if rng.Intn(2) == 0 {
						ms[p].Enqueue(lattice.NewSet(fmt.Sprintf("p%d.%d", p, k)))
					} else {
						ms[p].Enqueue(lat.Bottom()) // pure ReadMax
					}
				}
			}
			if err := sys.Run(sched.NewRandom(seed*31+7), 0); err != nil {
				t.Fatal(err)
			}
			var results []any
			for _, m := range ms {
				results = append(results, m.Results()...)
			}
			for i := range results {
				for j := i + 1; j < len(results); j++ {
					if !lattice.Comparable(lat, results[i], results[j]) {
						t.Fatalf("opt=%v seed=%d: incomparable results %v and %v",
							optimized, seed, results[i], results[j])
					}
				}
			}
		}
	}
}

// TestScanLinearizability checks the three conditions that pin down
// linearizability for the semilattice object (Theorem 33):
//  1. all results are pairwise comparable (Lemma 32);
//  2. real-time order is respected: if op a ends before op b starts,
//     result(a) ≤ result(b) (Lemma 29);
//  3. legality: each result includes everything that completed before
//     the op started, and nothing that started after it ended.
func TestScanLinearizability(t *testing.T) {
	lat := lattice.SetUnion{}
	for _, optimized := range []bool{false, true} {
		for seed := int64(0); seed < 12; seed++ {
			n := 2 + int(seed)%4
			sys, ms := newSimSystem(n, lat, optimized)
			contrib := map[string]struct{ proc, idx int }{}
			for p := 0; p < n; p++ {
				for k := 0; k < 3; k++ {
					key := fmt.Sprintf("p%d.%d", p, k)
					ms[p].Enqueue(lattice.NewSet(key))
					contrib[key] = struct{ proc, idx int }{p, k}
				}
			}
			var s pram.Scheduler
			if seed%2 == 0 {
				s = sched.NewRandom(seed)
			} else {
				s = sched.NewBursty(seed, 5)
			}
			ops, err := runTimed(sys, ms, s, 0)
			if err != nil {
				t.Fatal(err)
			}
			when := map[string]opTiming{}
			for _, op := range ops {
				for key, c := range contrib {
					if c.proc == op.proc && c.idx == op.idx {
						when[key] = op
					}
				}
			}
			for _, a := range ops {
				ra := a.result.(lattice.Set)
				for _, b := range ops {
					if a.end < b.start {
						if !lat.Leq(a.result, b.result) {
							t.Fatalf("opt=%v seed=%d: real-time order violated: %v then %v",
								optimized, seed, a.result, b.result)
						}
					}
				}
				// Legality: key visibility versus the writing op's
				// interval.
				for key, w := range when {
					if w.end < a.start && !ra.Has(key) {
						t.Fatalf("opt=%v seed=%d: scan missed %q written before it started",
							optimized, seed, key)
					}
					if w.start > a.end && ra.Has(key) {
						t.Fatalf("opt=%v seed=%d: scan saw %q written after it ended",
							optimized, seed, key)
					}
				}
			}
		}
	}
}

// TestScanMonotonePerProcess: successive scans by one process return
// non-decreasing values (Lemma 28), and each scan's result includes
// the value it contributed.
func TestScanMonotonePerProcess(t *testing.T) {
	lat := lattice.MaxInt{}
	sys, ms := newSimSystem(3, lat, true)
	for p := 0; p < 3; p++ {
		for k := 0; k < 5; k++ {
			ms[p].Enqueue(int64(p*100 + k))
		}
	}
	if err := sys.Run(sched.NewRandom(3), 0); err != nil {
		t.Fatal(err)
	}
	for p, m := range ms {
		rs := m.Results()
		for k := 1; k < len(rs); k++ {
			if !lat.Leq(rs[k-1], rs[k]) {
				t.Errorf("p=%d: result %d (%v) > result %d (%v)", p, k-1, rs[k-1], k, rs[k])
			}
		}
		for k, r := range rs {
			if !lat.Leq(int64(p*100+k), r) {
				t.Errorf("p=%d op %d: result %v misses own contribution", p, k, r)
			}
		}
	}
}

// TestScanWaitFreeUnderCrash: crashed peers never block a scanner.
func TestScanWaitFreeUnderCrash(t *testing.T) {
	n := 4
	sys, ms := newSimSystem(n, lattice.MaxInt{}, true)
	for p := 0; p < n; p++ {
		ms[p].Enqueue(int64(p + 1))
	}
	// Processes 1..3 crash immediately; process 0 must still finish in
	// its bounded number of steps.
	crashed := sched.Func(func(running []int) int {
		for _, p := range running {
			if p == 0 {
				return p
			}
		}
		return -1
	})
	err := sys.Run(crashed, 0)
	if err != pram.ErrStopped {
		t.Fatalf("Run = %v, want ErrStopped once only crashed procs remain", err)
	}
	if !ms[0].Done() {
		t.Fatal("scanner did not finish despite taking all its steps")
	}
	if got := ms[0].Results()[0].(int64); got != 1 {
		t.Errorf("result = %d, want own value 1 (crashed peers never wrote)", got)
	}
}

// TestScanDeterminism: identical seeds give identical runs.
func TestScanDeterminism(t *testing.T) {
	run := func() []any {
		sys, ms := newSimSystem(3, lattice.MaxInt{}, false)
		for p := 0; p < 3; p++ {
			ms[p].Enqueue(int64(p * 7))
			ms[p].Enqueue(int64(p*7 + 1))
		}
		if err := sys.Run(sched.NewRandom(5), 0); err != nil {
			panic(err)
		}
		var out []any
		for _, m := range ms {
			out = append(out, m.Results()...)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic: %v vs %v", a, b)
		}
	}
}

func TestScanMachineCloneIsolation(t *testing.T) {
	sys, ms := newSimSystem(2, lattice.MaxInt{}, true)
	ms[0].Enqueue(int64(5))
	ms[1].Enqueue(int64(9))
	sys.Step(0)
	cl := sys.Clone()
	if err := cl.RunSolo(0, 0); err != nil {
		t.Fatal(err)
	}
	if ms[0].Done() {
		t.Error("running the clone finished the original's machine")
	}
	clm := cl.Machines[0].(*ScanMachine)
	if got := clm.Results()[0].(int64); got != 5 {
		t.Errorf("clone result = %d, want 5", got)
	}
}

// TestScanMachineInPlace pins the in-place pass accumulation that lets
// the Figure 4 machine run on native atomics at the hand-written
// Snapshot.Scan's cost. Over the tagged-vector lattice on the native
// substrate, one machine scan allocates at most two objects more than
// Snapshot.Scan (without the in-place path it allocates one vector per
// read). And because the accumulator is mutated in place, a machine
// cloned mid-pass must own its own: stepping the clone against other
// register contents must leave the original's result unchanged.
func TestScanMachineInPlace(t *testing.T) {
	const n = 8
	vl := lattice.Vector{N: n}
	lay := Layout{N: n}

	t.Run("allocs", func(t *testing.T) {
		arg := vl.Single(0, 1, "x")
		snap := New(n, vl)
		want := testing.AllocsPerRun(100, func() { snap.Scan(0, arg) })
		mem := native.NewMem(lay.Regs(), n)
		lay.Install(mem, vl)
		mc := NewScanMachine(0, lay, vl, true)
		got := testing.AllocsPerRun(100, func() {
			mc.Enqueue(arg)
			for !mc.Done() {
				mc.Step(mem)
			}
			mc.DropResults()
		})
		if got > want+2 {
			t.Fatalf("ScanMachine scan: %.0f allocs, Snapshot.Scan: %.0f (allowed +2)", got, want)
		}
	})

	t.Run("clone-mid-pass", func(t *testing.T) {
		mem := pram.NewMem(lay.Regs(), n)
		lay.Install(mem, vl)
		mc := NewScanMachine(0, lay, vl, true)
		mc.Enqueue(vl.Single(0, 1, "p0"))
		// The row-0 write, pass 1 (n−1 reads and a write), then two of
		// pass 2's reads: the accumulator is live.
		for k := 0; k < n+3; k++ {
			mc.Step(mem)
		}
		cl := mc.Clone().(*ScanMachine)
		// In the clone's world process n−1 has published into the row
		// pass 2 has yet to read.
		other := mem.Clone()
		other.Write(n-1, lay.Reg(n-1, 1), vl.Single(n-1, 7, "late"))
		for !cl.Done() {
			cl.Step(other)
		}
		for !mc.Done() {
			mc.Step(mem)
		}
		got := mc.Results()[0].(lattice.Vec)
		clGot := cl.Results()[0].(lattice.Vec)
		if clGot[n-1].Tag != 7 || clGot[0].Tag != 1 {
			t.Fatalf("clone result %v: want its own write and the late publication", clGot)
		}
		if got[n-1].Tag != 0 || got[0].Tag != 1 {
			t.Fatalf("original result %v saw the clone's register contents", got)
		}
	})
}

func TestLayoutValidation(t *testing.T) {
	lay := Layout{Base: 0, N: 2}
	if lay.Regs() != 8 {
		t.Errorf("Regs = %d, want 8", lay.Regs())
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for slot out of range")
		}
	}()
	lay.Reg(0, 4)
}

func TestNewScanMachineValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad process index")
		}
	}()
	NewScanMachine(5, Layout{N: 2}, lattice.MaxInt{}, true)
}

func TestStepAfterDonePanics(t *testing.T) {
	sys, ms := newSimSystem(1, lattice.MaxInt{}, true)
	ms[0].Enqueue(int64(1))
	if err := sys.RunSolo(0, 0); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	ms[0].Step(sys.Mem)
}

// TestCountFormulas pins the closed forms themselves.
func TestCountFormulas(t *testing.T) {
	cases := []struct {
		n               int
		lr, lw, or2, ow uint64
	}{
		{1, 3, 3, 0, 2},
		{2, 7, 4, 3, 3},
		{4, 21, 6, 15, 5},
		{8, 73, 10, 63, 9},
	}
	for _, c := range cases {
		if LiteralReads(c.n) != c.lr || LiteralWrites(c.n) != c.lw {
			t.Errorf("n=%d literal = %d/%d, want %d/%d",
				c.n, LiteralReads(c.n), LiteralWrites(c.n), c.lr, c.lw)
		}
		if OptimizedReads(c.n) != c.or2 || OptimizedWrites(c.n) != c.ow {
			t.Errorf("n=%d optimized = %d/%d, want %d/%d",
				c.n, OptimizedReads(c.n), OptimizedWrites(c.n), c.or2, c.ow)
		}
	}
}
