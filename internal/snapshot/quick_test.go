package snapshot

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/lattice"
	"repro/internal/pram"
	"repro/internal/sched"
)

// TestQuickComparabilityNative: for random operation mixes on the
// native snapshot, all scan results are pairwise comparable and
// per-process monotone (Lemmas 32, 28) — run single-threaded over
// random slots, which still exercises arbitrary cross-slot histories.
func TestQuickComparabilityNative(t *testing.T) {
	lat := lattice.MapMax{}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		s := New(n, lat)
		prev := make([]any, n)
		for p := range prev {
			prev[p] = lat.Bottom()
		}
		var results []any
		for op := 0; op < 20; op++ {
			p := rng.Intn(n)
			var v any = lat.Bottom()
			if rng.Intn(2) == 0 {
				v = lattice.IntMap{string(rune('a' + rng.Intn(4))): int64(rng.Intn(50))}
			}
			r := s.Scan(p, v)
			if !lat.Leq(prev[p], r) {
				return false // per-process monotonicity broken
			}
			if !lat.Leq(v, r) {
				return false // own contribution missing
			}
			prev[p] = r
			results = append(results, r)
		}
		for i := range results {
			for j := i + 1; j < len(results); j++ {
				if !lattice.Comparable(lat, results[i], results[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickSimEquivalence: for one sequential operation sequence, the
// machines stepped on the simulator and the native objects that step
// the same machines on atomic registers must return the same values —
// a literal and an optimized simulated Figure 5 scan against Snapshot,
// and the double-collect and Afek machines against DoubleCollect and
// Afek.
func TestQuickSimEquivalence(t *testing.T) {
	t.Run("Figure5", func(t *testing.T) {
		lat := lattice.MaxInt{}
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 1 + rng.Intn(5)
			type op struct {
				p int
				v int64
			}
			ops := make([]op, 1+rng.Intn(10))
			for i := range ops {
				ops[i] = op{p: rng.Intn(n), v: int64(rng.Intn(1000))}
			}

			runSim := func(optimized bool) []any {
				sys, ms := newSimSystem(n, lat, optimized)
				var out []any
				for _, o := range ops {
					ms[o.p].Enqueue(o.v)
					for k := len(ms[o.p].Results()); len(ms[o.p].Results()) == k; {
						sys.Step(o.p)
					}
					rs := ms[o.p].Results()
					out = append(out, rs[len(rs)-1])
				}
				return out
			}
			lit := runSim(false)
			opt := runSim(true)

			nat := New(n, lat)
			var natOut []any
			for _, o := range ops {
				natOut = append(natOut, nat.Scan(o.p, o.v))
			}
			for i := range ops {
				if lit[i] != opt[i] || opt[i] != natOut[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
			t.Error(err)
		}
	})

	type updater interface {
		pram.Machine
		Enqueue(v any)
	}
	type scanner interface {
		pram.Machine
		Result() []any
	}
	for _, c := range []struct {
		name    string
		native  func(n int) ArraySnapshot
		updater func(p int, lay DCLayout) updater
		scanner func(p int, lay DCLayout) scanner
	}{
		{"DoubleCollect", func(n int) ArraySnapshot { return NewDoubleCollect(n) },
			func(p int, lay DCLayout) updater { return NewDCUpdateMachine(p, lay, nil) },
			func(p int, lay DCLayout) scanner { return NewDCScanMachine(p, lay) }},
		{"Afek", func(n int) ArraySnapshot { return NewAfek(n) },
			func(p int, lay DCLayout) updater { return NewAfekUpdateMachine(p, lay, nil) },
			func(p int, lay DCLayout) scanner { return NewAfekScanMachine(p, lay) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				n := 1 + rng.Intn(5)
				lay := DCLayout{N: n}
				mem := pram.NewMem(n, n)
				lay.Install(mem)
				run := func(mc pram.Machine) {
					for !mc.Done() {
						mc.Step(mem)
					}
				}
				ups := make([]updater, n)
				for p := range ups {
					ups[p] = c.updater(p, lay)
				}
				nat := c.native(n)
				for op := 0; op < 25; op++ {
					p := rng.Intn(n)
					if rng.Intn(2) == 0 {
						v := rng.Intn(100)
						ups[p].Enqueue(v)
						run(ups[p])
						nat.Update(p, v)
						continue
					}
					sc := c.scanner(p, lay)
					run(sc)
					if !slices.Equal(sc.Result(), nat.Scan(p)) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestQuickArrayAgainstReference: random sequential update/scan
// programs over the four array-snapshot implementations must agree
// with a plain-array reference (sequential executions leave no room
// for legal divergence).
func TestQuickArrayAgainstReference(t *testing.T) {
	impls := map[string]func(n int) ArraySnapshot{
		"Array":         func(n int) ArraySnapshot { return NewArray(n) },
		"Afek":          func(n int) ArraySnapshot { return NewAfek(n) },
		"DoubleCollect": func(n int) ArraySnapshot { return NewDoubleCollect(n) },
		"Lock":          func(n int) ArraySnapshot { return NewLock(n) },
	}
	for name, mk := range impls {
		mk := mk
		t.Run(name, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				n := 1 + rng.Intn(5)
				a := mk(n)
				ref := make([]any, n)
				for op := 0; op < 25; op++ {
					p := rng.Intn(n)
					if rng.Intn(2) == 0 {
						v := rng.Intn(100)
						a.Update(p, v)
						ref[p] = v
					} else {
						got := a.Scan(p)
						for i := range ref {
							if got[i] != ref[i] {
								return false
							}
						}
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestQuickSimWaitFreeStepCount: under arbitrary random schedules, a
// scan completes after exactly its fixed number of own steps — the
// operational meaning of the bounded wait-free property.
func TestQuickSimWaitFreeStepCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		sys, ms := newSimSystem(n, lattice.MaxInt{}, true)
		for p := 0; p < n; p++ {
			ms[p].Enqueue(int64(p))
		}
		if err := sys.Run(sched.NewRandom(seed), 0); err != nil {
			return false
		}
		want := OptimizedReads(n) + OptimizedWrites(n)
		for p := 0; p < n; p++ {
			if sys.Mem.Counters().AccessesBy(p) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
