package native_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/pram"
	"repro/internal/pram/native"
	"repro/internal/snapshot"
	"repro/internal/spec"
	"repro/internal/types"
)

// TestMemoryBasics exercises the pram.Memory contract on the native
// substrate: geometry, init, read/write round-trips, Peek, ownership
// introspection, and access counting.
func TestMemoryBasics(t *testing.T) {
	m := native.NewMem(4, 2)
	if m.Size() != 4 || m.NProc() != 2 {
		t.Fatalf("geometry = (%d,%d), want (4,2)", m.Size(), m.NProc())
	}
	if got := m.Read(0, 0); got != nil {
		t.Fatalf("fresh register read %v, want nil", got)
	}
	m.Init(1, "seed")
	if got := m.Peek(1); got != "seed" {
		t.Fatalf("Peek after Init = %v", got)
	}
	m.Write(0, 2, 42)
	if got := m.Read(1, 2); got != 42 {
		t.Fatalf("read-after-write = %v, want 42", got)
	}
	if m.Owner(2) != pram.NoOwner || m.Reader(2) != pram.NoOwner {
		t.Fatal("fresh register has owner/reader restrictions")
	}
	m.SetOwner(3, 1)
	m.SetReader(3, 0)
	if m.Owner(3) != 1 || m.Reader(3) != 0 {
		t.Fatalf("ownership introspection = (%d,%d), want (1,0)", m.Owner(3), m.Reader(3))
	}
	c := m.Counters()
	// Init and Peek are configuration/oracle accesses, never steps.
	if c.Reads != 2 || c.Writes != 1 {
		t.Fatalf("counters = %d reads / %d writes, want 2/1", c.Reads, c.Writes)
	}
	if c.ReadsBy[0] != 1 || c.ReadsBy[1] != 1 || c.WritesBy[0] != 1 {
		t.Fatalf("per-process counters wrong: %+v", c)
	}
}

// mustPanic runs f and asserts it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic (want one containing %q)", want)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

// TestOwnershipViolationsPanic pins the ownership checks: a write by
// a non-owner and a read by a non-reader each panic with a diagnostic
// naming the culprit.
func TestOwnershipViolationsPanic(t *testing.T) {
	m := native.NewMem(2, 3)
	m.SetOwner(0, 1)
	m.SetReader(1, 2)
	mustPanic(t, "single-writer violation", func() { m.Write(0, 0, 1) })
	mustPanic(t, "single-reader violation", func() { m.Read(0, 1) })
	// The configured processes are fine.
	m.Write(1, 0, 7)
	_ = m.Read(2, 1)
	// Out-of-range processes are caught even on unrestricted registers.
	mustPanic(t, "out of range", func() { m.Write(5, 0, 1) })
}

// TestRunUniversalCounter drives the Figure 4 machine body — the same
// state machine the simulator steps — on native atomics with one real
// goroutine per slot, and checks that the object's final state agrees
// with the sequential sum and the access counters reconcile with the
// machines' work.
func TestRunUniversalCounter(t *testing.T) {
	const n, opsPer = 4, 32
	mem := native.NewMem(snapshot.Layout{N: n}.Regs(), n)
	u := core.NewSim(types.Counter{}, n, 0, mem)
	machines := make([]pram.Machine, n)
	for p := 0; p < n; p++ {
		invs := make([]spec.Inv, opsPer)
		for i := range invs {
			invs[i] = types.Inc(1)
		}
		machines[p] = core.NewMachine(u, p, invs)
	}
	if err := native.Run(mem, machines); err != nil {
		t.Fatal(err)
	}
	// Slot 0's machine reads the final count through the same
	// substrate. It must be slot 0's own machine: a scan skips its
	// self-reads in favour of its local copies, so a fresh machine for
	// slot 0 would miss slot 0's publications that no other slot saw.
	probe := machines[0].(*core.Machine)
	probe.Enqueue(types.Read())
	for !probe.Done() {
		probe.Step(mem)
	}
	if got := probe.Results()[opsPer]; got != int64(n*opsPer) {
		t.Fatalf("final count = %v, want %d", got, n*opsPer)
	}
	c := mem.Counters()
	if c.Reads == 0 || c.Writes == 0 {
		t.Fatal("no accesses counted")
	}
	// Every op is non-pure: exactly two optimized scans each, plus the
	// probe's one pure read — the counts must reconcile to the access.
	wantReads := uint64(n*opsPer)*core.OpReads(n) + core.PureOpReads(n)
	wantWrites := uint64(n*opsPer)*core.OpWrites(n) + core.PureOpWrites(n)
	if c.Reads != wantReads || c.Writes != wantWrites {
		t.Fatalf("counters = %d/%d, want %d/%d", c.Reads, c.Writes, wantReads, wantWrites)
	}
}

// violator writes a register it does not own on its first step.
type violator struct{ done bool }

func (v *violator) Step(m pram.Memory) { m.Write(0, 0, "stomp"); v.done = true }
func (v *violator) Done() bool         { return v.done }
func (v *violator) Clone() pram.Machine {
	cp := *v
	return &cp
}

// idler completes immediately without touching shared memory.
type idler struct{ done bool }

func (v *idler) Step(m pram.Memory) { v.done = true }
func (v *idler) Done() bool         { return v.done }
func (v *idler) Clone() pram.Machine {
	cp := *v
	return &cp
}

// TestRunReportsViolation checks that an ownership panic inside one
// slot's goroutine is recovered and surfaced as Run's error — and does
// not take the other slots down.
func TestRunReportsViolation(t *testing.T) {
	m := native.NewMem(1, 2)
	m.SetOwner(0, 1)
	err := native.Run(m, []pram.Machine{&violator{}, &idler{}})
	if err == nil || !strings.Contains(err.Error(), "single-writer violation") {
		t.Fatalf("err = %v, want single-writer violation", err)
	}
}

// TestRunTimedSpans checks the wall-clock span recording: one span per
// completed operation, nonnegative durations, per-slot starts
// nondecreasing.
func TestRunTimedSpans(t *testing.T) {
	const n, opsPer = 3, 8
	mem := native.NewMem(snapshot.Layout{N: n}.Regs(), n)
	u := core.NewSim(types.Counter{}, n, 0, mem)
	machines := make([]pram.Machine, n)
	for p := 0; p < n; p++ {
		invs := make([]spec.Inv, opsPer)
		for i := range invs {
			invs[i] = types.Inc(1)
		}
		machines[p] = core.NewMachine(u, p, invs)
	}
	spans, err := native.RunTimed(mem, machines, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != n*opsPer {
		t.Fatalf("got %d spans, want %d", len(spans), n*opsPer)
	}
	lastEnd := make(map[int]int64)
	seen := make(map[int]int)
	for _, sp := range spans {
		if sp.End < sp.Start || sp.Start < 0 {
			t.Fatalf("span %+v not well-formed", sp)
		}
		if sp.Index != seen[sp.Proc] {
			t.Fatalf("slot %d spans out of order: index %d after %d", sp.Proc, sp.Index, seen[sp.Proc])
		}
		seen[sp.Proc]++
		if sp.Start < lastEnd[sp.Proc] {
			t.Fatalf("slot %d op %d started (%d) before its predecessor ended (%d)",
				sp.Proc, sp.Index, sp.Start, lastEnd[sp.Proc])
		}
		lastEnd[sp.Proc] = sp.End
	}
}

// TestCountersDuringRun reads Counters concurrently with a live run —
// the race detector is the assertion.
func TestCountersDuringRun(t *testing.T) {
	const n = 4
	mem := native.NewMem(snapshot.Layout{N: n}.Regs(), n)
	u := core.NewSim(types.Counter{}, n, 0, mem)
	machines := make([]pram.Machine, n)
	for p := 0; p < n; p++ {
		machines[p] = core.NewMachine(u, p, []spec.Inv{types.Inc(1), types.Inc(1)})
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = mem.Counters()
				_ = mem.Peek(0)
			}
		}
	}()
	if err := native.Run(mem, machines); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
}
