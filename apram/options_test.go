package apram_test

import (
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/apram"
	"repro/apram/obs"
)

// wantArgError runs f expecting a panic whose value is an *ArgError
// with the given rendered message.
func wantArgError(t *testing.T, wantMsg string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("no panic; want ArgError %q", wantMsg)
		}
		ae, ok := r.(*apram.ArgError)
		if !ok {
			t.Fatalf("panic value %T (%v); want *apram.ArgError", r, r)
		}
		if got := ae.Error(); got != wantMsg {
			t.Fatalf("ArgError message %q, want %q", got, wantMsg)
		}
	}()
	f()
}

// TestArgErrors pins the message of every constructor's validation
// panic: one shared ArgError shape, one message per impossible
// argument.
func TestArgErrors(t *testing.T) {
	noSlots := func(fn string) string {
		return "apram: " + fn + ": n = 0: need at least one process slot"
	}
	cases := []struct {
		msg string
		f   func()
	}{
		{noSlots("NewSnapshot"), func() { apram.NewSnapshot(0, apram.MaxInt{}) }},
		{noSlots("NewArraySnapshot"), func() { apram.NewArraySnapshot(0) }},
		{noSlots("NewAgreement"), func() { apram.NewAgreement(0, 0.5) }},
		{noSlots("NewObject"), func() { apram.NewObject(apram.CounterSpec{}, 0) }},
		{noSlots("NewCheckedObject"), func() { apram.NewCheckedObject(apram.CounterSpec{}, 0, nil, nil) }},
		{noSlots("NewPRMW"), func() { apram.NewPRMW(0, apram.AddFamily{}) }},
		{noSlots("NewCounter"), func() { apram.NewCounter(0) }},
		{noSlots("NewClock"), func() { apram.NewClock(0) }},
		{noSlots("NewBinaryConsensus"), func() { apram.NewBinaryConsensus(0) }},
		{noSlots("NewAdoptCommit"), func() { apram.NewAdoptCommit(0) }},
		{
			"apram: NewAgreement: eps = -1: tolerance must be positive",
			func() { apram.NewAgreement(2, -1) },
		},
	}
	for _, tc := range cases {
		wantArgError(t, tc.msg, tc.f)
	}
	// Negative n takes the same path; spot-check the value rendering.
	wantArgError(t, "apram: NewCounter: n = -3: need at least one process slot",
		func() { apram.NewCounter(-3) })
}

// TestNameOfDefault is the regression test for the silent-drop bug:
// objects constructed without WithName used to be absent from the
// registry, so NameOf returned "". They must now carry a generated
// "<type>#<seq>" default.
func TestNameOfDefault(t *testing.T) {
	c1 := apram.NewCounter(2)
	c2 := apram.NewCounter(2)
	n1, n2 := apram.NameOf(c1), apram.NameOf(c2)
	if n1 == "" || n2 == "" {
		t.Fatalf("default names missing: %q, %q", n1, n2)
	}
	pat := regexp.MustCompile(`^directcounter#\d+$`)
	if !pat.MatchString(n1) || !pat.MatchString(n2) {
		t.Fatalf("default names %q, %q do not match <type>#<seq>", n1, n2)
	}
	if n1 == n2 {
		t.Fatalf("distinct objects share default name %q", n1)
	}
	// Different constructed type, different type prefix.
	if n := apram.NameOf(apram.NewClock(2)); !strings.HasPrefix(n, "directclock#") {
		t.Fatalf("clock default name = %q", n)
	}
	// Explicit names still win.
	if n := apram.NameOf(apram.NewCounter(2, apram.WithName("requests"))); n != "requests" {
		t.Fatalf("WithName ignored: %q", n)
	}
	// Unregistered values still report "".
	if n := apram.NameOf(&struct{}{}); n != "" {
		t.Fatalf("NameOf(unregistered) = %q", n)
	}
}

// TestNameOfDoesNotRetainObjects: the name registry must not keep a
// registered object alive. A long-running process that constructs and
// drops objects (one server per test, per benchmark run) would
// otherwise carry every predecessor's heap.
func TestNameOfDoesNotRetainObjects(t *testing.T) {
	collected := make(chan struct{})
	func() {
		u := apram.NewObject(apram.CounterSpec{}, 2, apram.WithName("dropped"))
		u.Execute(0, apram.Inc(1))
		if n := apram.NameOf(u); n != "dropped" {
			t.Fatalf("NameOf = %q, want %q", n, "dropped")
		}
		runtime.SetFinalizer(u, func(*apram.Object) { close(collected) })
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a dropped, registered object was never collected: the name registry keeps it alive")
}

// TestWithRecorderOption: a Recorder attached via WithRecorder (alone
// or alongside a Stats probe) receives the object's span traffic.
func TestWithRecorderOption(t *testing.T) {
	const n = 2
	rec := apram.NewRecorder(n)
	st := apram.NewStats(n)
	c := apram.NewCounter(n, apram.WithProbe(st), apram.WithRecorder(rec))
	c.Inc(0, 5)
	if got := c.Read(1); got != 5 {
		t.Fatalf("Read = %d", got)
	}
	if st.Reads() == 0 || st.Writes() == 0 {
		t.Fatal("stats probe not wired")
	}
	if spans := rec.Spans(); len(spans) == 0 {
		t.Fatal("recorder not wired")
	}

	// Recorder alone works too.
	rec2 := apram.NewRecorder(n)
	c2 := apram.NewCounter(n, apram.WithRecorder(rec2))
	c2.Inc(0, 1)
	if spans := rec2.Spans(); len(spans) == 0 {
		t.Fatal("lone recorder not wired")
	}
}

// TestResolveOptions covers the exported resolution surface that
// apram/serve builds on.
func TestResolveOptions(t *testing.T) {
	st := obs.NewStats(1)
	o := apram.ResolveOptions(
		apram.WithProbe(st), apram.WithSeed(7), apram.WithName("x"),
		apram.WithBatchCap(16), apram.WithQueueDepth(64))
	if o.Probe == nil || !o.HasSeed || o.Seed != 7 || o.Name != "x" ||
		o.BatchCap != 16 || o.QueueDepth != 64 {
		t.Fatalf("resolved options = %+v", o)
	}
	if def := apram.ResolveOptions(); def.Probe != nil || def.HasSeed || def.BatchCap != 0 {
		t.Fatalf("zero options = %+v", def)
	}
}
