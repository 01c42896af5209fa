package serve_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/apram"
	"repro/apram/serve"
	"repro/apram/telemetry"
	"repro/internal/spec"
)

// slowOnce wraps a spec so that the FIRST Apply of each distinct
// invocation argument sleeps for d. Replays (the linearization
// engine re-applies history entries) see the argument again and run
// at full speed, so one submitted operation stalls its slot worker
// exactly once — which lets a test fill the slot queue behind a
// deterministic roadblock. Embedding the interface hides the base
// spec's SampleInvocations, so serve degrades to singleton batches:
// every queued request is its own batch, exactly what admission tests
// want.
type slowOnce struct {
	apram.Spec
	d    time.Duration
	mu   sync.Mutex
	seen map[string]bool
}

func newSlowOnce(base apram.Spec, d time.Duration) *slowOnce {
	return &slowOnce{Spec: base, d: d, seen: map[string]bool{}}
}

func (s *slowOnce) Apply(st spec.State, inv spec.Inv) (spec.State, any) {
	key := inv.Op + "/" + fmt.Sprint(inv.Arg)
	s.mu.Lock()
	first := !s.seen[key]
	s.seen[key] = true
	s.mu.Unlock()
	if first {
		time.Sleep(s.d)
	}
	return s.Spec.Apply(st, inv)
}

// submit runs one DoRequest in a goroutine and returns the channel its
// error will arrive on.
func submit(sv *serve.Server, inv apram.Inv, tenant string, prio int) <-chan error {
	ch := make(chan error, 1)
	go func() {
		_, err := sv.DoRequest(context.Background(), serve.Request{Inv: inv, Tenant: tenant, Priority: prio})
		ch <- err
	}()
	return ch
}

func waitErr(t *testing.T, ch <-chan error, within time.Duration, what string) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(within):
		t.Fatalf("%s: no result within %v", what, within)
		return nil
	}
}

// TestAdmissionShedLowestPriority: with the queue full, a
// higher-priority arrival evicts the lowest-priority queued request
// (which fails with ErrOverload), and an arrival that outranks nothing
// queued is itself rejected with ErrOverload — in both cases without
// blocking the caller.
func TestAdmissionShedLowestPriority(t *testing.T) {
	sv := serve.New(newSlowOnce(apram.CounterSpec{}, 400*time.Millisecond), 1,
		apram.WithQueueDepth(2),
		apram.WithAdmission(apram.ShedLowestPriority()))
	defer sv.Close()
	if got := sv.Admission().Kind; got != apram.AdmitShed {
		t.Fatalf("Admission().Kind = %v, want AdmitShed", got)
	}

	// A stalls the lone slot worker inside Apply; B and C then fill the
	// depth-2 queue behind it.
	a := submit(sv, apram.Inc(1), "t-a", 1)
	time.Sleep(50 * time.Millisecond) // let the worker take A
	b := submit(sv, apram.Inc(2), "t-b", 1)
	time.Sleep(20 * time.Millisecond)
	c := submit(sv, apram.Inc(3), "t-c", 0)
	time.Sleep(20 * time.Millisecond)

	// D (priority 0) outranks nothing queued — C also has priority 0,
	// and equal priorities never displace each other — so D is rejected.
	d := submit(sv, apram.Inc(4), "t-d", 0)
	if err := waitErr(t, d, 100*time.Millisecond, "D"); !errors.Is(err, serve.ErrOverload) {
		t.Fatalf("D: %v, want ErrOverload", err)
	}

	// E (priority 2) outranks C (priority 0): C is evicted, E admitted.
	e := submit(sv, apram.Inc(5), "t-e", 2)
	if err := waitErr(t, c, 100*time.Millisecond, "C"); !errors.Is(err, serve.ErrOverload) {
		t.Fatalf("C (evicted): %v, want ErrOverload", err)
	}

	// The admitted requests all complete once the roadblock clears.
	for _, x := range []struct {
		name string
		ch   <-chan error
	}{{"A", a}, {"B", b}, {"E", e}} {
		if err := waitErr(t, x.ch, 5*time.Second, x.name); err != nil {
			t.Fatalf("%s: %v, want success", x.name, err)
		}
	}
	if got := sv.ShedCount(); got != 2 {
		t.Fatalf("ShedCount = %d, want 2 (D rejected + C evicted)", got)
	}
}

// TestAdmissionDropAfterDeadline: a request that cannot be admitted
// within the bound fails with ErrOverload, and a request that was
// admitted but sat queued past the bound is dropped by its worker
// instead of executed stale.
func TestAdmissionDropAfterDeadline(t *testing.T) {
	sv := serve.New(newSlowOnce(apram.CounterSpec{}, 500*time.Millisecond), 1,
		apram.WithQueueDepth(1),
		apram.WithAdmission(apram.DropAfter(60*time.Millisecond)))
	defer sv.Close()

	a := submit(sv, apram.Inc(1), "", 0)
	time.Sleep(50 * time.Millisecond) // let the worker take A and stall
	b := submit(sv, apram.Inc(2), "", 0)
	time.Sleep(20 * time.Millisecond) // B occupies the depth-1 queue
	c := submit(sv, apram.Inc(3), "", 0)

	// C waits at most the 60ms bound for admission, then sheds.
	if err := waitErr(t, c, 300*time.Millisecond, "C"); !errors.Is(err, serve.ErrOverload) {
		t.Fatalf("C (admission timeout): %v, want ErrOverload", err)
	}
	// B was admitted but sits queued until the worker frees (~500ms),
	// far past the 60ms residence bound — the worker drops it.
	if err := waitErr(t, b, 5*time.Second, "B"); !errors.Is(err, serve.ErrOverload) {
		t.Fatalf("B (queue residence): %v, want ErrOverload", err)
	}
	if err := waitErr(t, a, 5*time.Second, "A"); err != nil {
		t.Fatalf("A: %v, want success", err)
	}
	if got := sv.ShedCount(); got != 2 {
		t.Fatalf("ShedCount = %d, want 2 (C timed out + B dropped)", got)
	}
}

// TestAdmissionValidation: impossible admission arguments panic with
// an apram.ArgError at construction.
func TestAdmissionValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		a    apram.Admission
	}{
		{"zero drop-after bound", apram.DropAfter(0)},
		{"negative drop-after bound", apram.DropAfter(-time.Second)},
		{"unknown kind", apram.Admission{Kind: apram.AdmissionKind(99)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic")
				}
				if _, ok := r.(*apram.ArgError); !ok {
					t.Fatalf("panic %v (%T), want *apram.ArgError", r, r)
				}
			}()
			serve.New(apram.CounterSpec{}, 1, apram.WithAdmission(tc.a))
		})
	}
}

// TestPerTenantTelemetry: requests submitted under a tenant label get
// their own serve.<name>.<tenant>.* series — an op-latency histogram
// counting their operations, a shed counter, and a queued gauge that
// returns to zero at rest.
func TestPerTenantTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	sv := serve.New(apram.CounterSpec{}, 2,
		apram.WithName("front"),
		apram.WithTelemetry(reg),
		apram.WithBackend(apram.Simulated(nil)))
	defer sv.Close()

	const ops = 16
	var wg sync.WaitGroup
	for i := 0; i < ops; i++ {
		wg.Add(1)
		tenant := "alice"
		if i%2 == 1 {
			tenant = "bob"
		}
		go func() {
			defer wg.Done()
			if _, err := sv.DoRequest(context.Background(), serve.Request{Inv: apram.Inc(1), Tenant: tenant}); err != nil {
				t.Errorf("DoRequest: %v", err)
			}
		}()
	}
	wg.Wait()

	snap := reg.Snapshot()
	hists := map[string]telemetry.HistSnapshot{}
	for _, h := range snap.Hists {
		hists[h.Name] = h.HistSnapshot
	}
	for _, tenant := range []string{"alice", "bob"} {
		h, ok := hists["serve.front."+tenant+".op_latency"]
		if !ok {
			t.Fatalf("no serve.front.%s.op_latency histogram in snapshot", tenant)
		}
		if h.Count != ops/2 {
			t.Fatalf("%s op_latency count = %d, want %d", tenant, h.Count, ops/2)
		}
	}
	gauges := map[string]uint64{}
	for _, g := range snap.Gauges {
		gauges[g.Name] = g.Value
	}
	for _, tenant := range []string{"alice", "bob"} {
		if v, ok := gauges["serve.front."+tenant+".queued"]; !ok || v != 0 {
			t.Fatalf("serve.front.%s.queued = %d (present %v), want 0 at rest", tenant, v, ok)
		}
	}
	counters := map[string]uint64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	for _, tenant := range []string{"alice", "bob"} {
		if v, ok := counters["serve.front."+tenant+".shed"]; !ok || v != 0 {
			t.Fatalf("serve.front.%s.shed = %d (present %v), want 0", tenant, v, ok)
		}
	}
}

// TestOpErrorTyped: a spec panic on a malformed invocation surfaces as
// a typed *OpError that unwraps to the cause, not a stringly error.
func TestOpErrorTyped(t *testing.T) {
	sv := serve.New(apram.CounterSpec{}, 1, apram.WithName("oops"))
	defer sv.Close()
	_, err := sv.Do(context.Background(), apram.Inv{Op: "no-such-op"})
	if err == nil {
		t.Fatal("malformed invocation succeeded")
	}
	var oe *serve.OpError
	if !errors.As(err, &oe) {
		t.Fatalf("error %v (%T), want *serve.OpError", err, err)
	}
	if oe.Name != "oops" {
		t.Fatalf("OpError.Name = %q, want %q", oe.Name, "oops")
	}
}

// TestOpErrorSlotRecovers: after a malformed invocation fails its
// batch, the same slot serves later requests, and its idle truncation
// ticks (which run outside the batch's panic recovery) keep the
// process alive — on both backends.
func TestOpErrorSlotRecovers(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []apram.Option
	}{
		{"native", nil},
		{"simulated", []apram.Option{apram.WithBackend(apram.Simulated(nil))}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := append([]apram.Option{apram.WithTruncateEvery(4)}, tc.opts...)
			sv := serve.New(apram.CounterSpec{}, 1, opts...)
			defer sv.Close()
			ctx := context.Background()
			for k := 0; k < 3; k++ {
				var oe *serve.OpError
				if _, err := sv.Do(ctx, apram.Inv{Op: "no-such-op"}); !errors.As(err, &oe) {
					t.Fatalf("malformed invocation: %v, want *serve.OpError", err)
				}
				time.Sleep(10 * time.Millisecond) // idle ticks on the failed slot
				for i := 0; i < 5; i++ {
					if _, err := sv.Do(ctx, apram.Inc(1)); err != nil {
						t.Fatalf("Inc after a failed batch: %v", err)
					}
				}
			}
			got, err := sv.Do(ctx, apram.Read())
			if err != nil {
				t.Fatal(err)
			}
			if got != int64(15) {
				t.Fatalf("final read = %v, want 15", got)
			}
		})
	}
}

// TestDoContextCause: a context that expires while waiting carries its
// cause through the returned error (errors.Is still matches the
// standard context sentinels).
func TestDoContextCause(t *testing.T) {
	sv := serve.New(newSlowOnce(apram.CounterSpec{}, 300*time.Millisecond), 1)
	defer sv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := sv.Do(ctx, apram.Inc(1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Do: %v, want wrapped context.DeadlineExceeded", err)
	}
}
