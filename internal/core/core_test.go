package core

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/apram/obs"
	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/spec"
	"repro/internal/types"
)

func TestSequentialCounterMatchesReplay(t *testing.T) {
	u := New(types.Counter{}, 1)
	script := []spec.Inv{
		types.Inc(3), types.Read(), types.Dec(1), types.Read(),
		types.Reset(100), types.Read(), types.Inc(1), types.Read(),
	}
	_, want := spec.Replay(types.Counter{}, script)
	for i, inv := range script {
		got := u.Execute(0, inv)
		if got != want[i] && !(got == nil && want[i] == nil) {
			t.Errorf("op %d (%v): got %v, want %v", i, inv, got, want[i])
		}
	}
}

func TestSequentialInterleavedProcesses(t *testing.T) {
	// Different process slots used sequentially must still see a
	// single consistent object.
	u := New(types.GSet{}, 3)
	u.Execute(0, types.Add("a"))
	u.Execute(1, types.Add("b"))
	got := u.Execute(2, types.Members()).([]string)
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("members = %v", got)
	}
	u.Execute(1, types.Clear())
	got = u.Execute(0, types.Members()).([]string)
	if len(got) != 0 {
		t.Fatalf("members after clear = %v", got)
	}
}

// runConcurrent drives an n-process universal object with random ops
// per process and returns the recorded history.
func runConcurrent(t *testing.T, s types.Sampler, n, opsPer int, seed int64) history.History {
	t.Helper()
	u := New(s, n)
	var rec history.Recorder
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(p)))
			invs := s.SampleInvocations()
			for k := 0; k < opsPer; k++ {
				inv := invs[rng.Intn(len(invs))]
				rec.Invoke(p, inv.Op, inv.Arg, func() any { return u.Execute(p, inv) })
			}
		}(p)
	}
	wg.Wait()
	return rec.History()
}

// TestConcurrentLinearizable is the headline correctness test: for
// every Property 1 type, concurrent executions through the universal
// construction produce linearizable histories.
func TestConcurrentLinearizable(t *testing.T) {
	for _, s := range types.Property1Types() {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				h := runConcurrent(t, s, 4, 3, seed*101)
				res, err := lincheck.Check(s, h)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Ok {
					t.Fatalf("seed %d: non-linearizable history:\n%v", seed, h.Ops)
				}
			}
		})
	}
}

// TestConcurrentCounterTotals: without resets, the final read must be
// the exact sum of all increments and decrements — no lost updates.
func TestConcurrentCounterTotals(t *testing.T) {
	const n, opsPer = 6, 20
	u := New(types.Counter{}, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < opsPer; k++ {
				if p%2 == 0 {
					u.Execute(p, types.Inc(1))
				} else {
					u.Execute(p, types.Dec(1))
				}
			}
		}(p)
	}
	wg.Wait()
	got := u.Execute(0, types.Read()).(int64)
	if got != 0 { // equal inc and dec counts
		t.Fatalf("final value = %d, want 0 (lost updates?)", got)
	}
}

// TestRetainedConcurrentObservers: Retained is read by observers that
// own no slot — the serving layer's retained_entries gauge, the shard
// layer's retained sum, samplers — while the slots extend and truncate
// their linearizers. Under the race detector this fails if the count
// is read from slot-owned state without synchronization.
func TestRetainedConcurrentObservers(t *testing.T) {
	const n, opsPer = 3, 150
	u := New(types.Counter{}, n)
	u.EnableTruncation(16)
	stop := make(chan struct{})
	observed := make(chan int)
	go func() {
		peak := 0
		for {
			select {
			case <-stop:
				observed <- peak
				return
			default:
			}
			if r := u.Retained(); r > peak {
				peak = r
			}
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < opsPer; k++ {
				u.Execute(p, types.Inc(1))
				u.TruncTick(p)
				runtime.Gosched() // let the observer in on one CPU too
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	if peak := <-observed; peak <= 0 {
		t.Fatalf("observer never saw a retained entry (peak %d)", peak)
	}
	if got := u.Execute(0, types.Read()).(int64); got != n*opsPer {
		t.Fatalf("final value = %d, want %d", got, n*opsPer)
	}
}

// TestPanickingInvocationLeavesSlotUsable: a malformed invocation
// panics inside the specification mid-operation. The panic must reach
// the caller, and the slot must then serve operations and idle
// truncation ticks normally on both substrates — a machine left
// mid-operation would make every later Execute on the slot panic, and
// the serving layer's idle ticker would crash the process.
func TestPanickingInvocationLeavesSlotUsable(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() *Universal
	}{
		{"native", func() *Universal { return New(types.Counter{}, 2) }},
		{"simulated", func() *Universal { return NewSimulated(types.Counter{}, 2, nil) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u := tc.mk()
			u.EnableTruncation(4)
			for k := 0; k < 3; k++ {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatal("malformed invocation did not panic")
						}
					}()
					u.Execute(0, spec.Inv{Op: "no-such-op"})
				}()
				u.TruncTick(0)
				u.Execute(0, types.Inc(1))
				u.Execute(1, types.Inc(1))
				u.TruncTick(0)
			}
			if got := u.Execute(0, types.Read()).(int64); got != 6 {
				t.Fatalf("final value = %d, want 6", got)
			}
		})
	}
}

// TestExecuteAllocs pins the allocation floor of native Execute on an
// n = 8 counter whose history is already long. A Read is one scan that
// meets nothing new, so its passes copy nothing: its nine register
// boxes come from the slot's slabs of 16, and it allocates the view,
// the state and response boxes, and the frontier's key. An Inc adds
// the publication scan, the entry and its vector, and the linearizer's
// work on one fresh entry (its closure, Figure 3 over it and one
// replay step, which builds no response). An attached probe adds
// nothing: the operation's register counts are two per-slot counter
// reads.
func TestExecuteAllocs(t *testing.T) {
	const n = 8
	for _, probe := range []obs.Probe{nil, obs.NewStats(n)} {
		u := New(types.Counter{}, n)
		if probe != nil {
			u.Instrument(probe)
		}
		for i := 0; i < 200; i++ {
			u.Execute(i%n, types.Inc(1))
		}
		for _, c := range []struct {
			inv spec.Inv
			max float64
		}{
			{types.Inc(1), 20},
			{types.Read(), 4},
		} {
			if got := testing.AllocsPerRun(100, func() { u.Execute(0, c.inv) }); got > c.max {
				t.Errorf("Execute(%v) with probe %T: %.0f allocs, want at most %.0f", c.inv, probe, got, c.max)
			}
		}
	}
}

func TestNewCheckedRejectsQueue(t *testing.T) {
	q := types.Queue{}
	if _, err := NewChecked(q, 2, q.SampleStates(), q.SampleInvocations()); err == nil {
		t.Fatal("queue accepted by NewChecked despite failing Property 1")
	}
}

func TestNewCheckedAcceptsCounter(t *testing.T) {
	c := types.Counter{}
	u, err := NewChecked(c, 2, c.SampleStates(), c.SampleInvocations())
	if err != nil {
		t.Fatal(err)
	}
	if u.N() != 2 || u.Spec().Name() != "counter" {
		t.Error("accessors wrong")
	}
}

func TestRespondWithConflictingConcurrentEntries(t *testing.T) {
	// Two concurrent resets (mutually overwriting): dominance breaks
	// the tie by process index — the higher process's reset dominates
	// and is linearized later, so its value wins.
	s := types.Counter{}
	e0 := &Entry{Proc: 0, Seq: 1, Inv: types.Reset(10), Resp: nil, Prev: make([]*Entry, 2)}
	e1 := &Entry{Proc: 1, Seq: 1, Inv: types.Reset(20), Resp: nil, Prev: make([]*Entry, 2)}
	resp, hist, err := Respond(s, []*Entry{e0, e1}, types.Read())
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("history length %d", len(hist))
	}
	if resp != int64(20) {
		t.Fatalf("read = %v, want 20 (reset of higher process dominates)", resp)
	}
	// The same graph must linearize the same way from any process's
	// perspective.
	resp2, _, _ := Respond(s, []*Entry{e1, e0}, types.Read())
	if resp2 != resp {
		t.Fatalf("view order changed the response: %v vs %v", resp, resp2)
	}
}

func TestRespondEmptyView(t *testing.T) {
	resp, hist, err := Respond(types.Counter{}, make([]*Entry, 3), types.Read())
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 0 || resp != int64(0) {
		t.Fatalf("empty view: resp=%v hist=%v", resp, hist)
	}
}

func TestEntryString(t *testing.T) {
	e := &Entry{Proc: 1, Seq: 3, Inv: types.Inc(5)}
	if e.String() == "" {
		t.Error("empty String")
	}
}

func TestExecutePanicsOutOfRange(t *testing.T) {
	u := New(types.Counter{}, 2)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	u.Execute(2, types.Read())
}

func TestNewPanicsOnZeroProcs(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(types.Counter{}, 0)
}
