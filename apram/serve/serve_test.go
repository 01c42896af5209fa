package serve_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/apram"
	"repro/apram/obs"
	"repro/apram/serve"
	"repro/apram/telemetry"
	"repro/internal/spec"
)

func do(t *testing.T, sv *serve.Server, inv apram.Inv) any {
	t.Helper()
	resp, err := sv.Do(context.Background(), inv)
	if err != nil {
		t.Fatalf("Do(%v): %v", inv, err)
	}
	return resp
}

// TestCounterBasics: sequential logical operations through the server
// behave like the counter.
func TestCounterBasics(t *testing.T) {
	sv := serve.New(apram.CounterSpec{}, 2)
	defer sv.Close()
	if !sv.Batching() || sv.BatchCap() != serve.DefaultBatchCap {
		t.Fatalf("counter should batch at the default cap; got batching=%v cap=%d",
			sv.Batching(), sv.BatchCap())
	}
	do(t, sv, apram.Inc(2))
	do(t, sv, apram.Inc(3))
	do(t, sv, apram.Dec(1))
	if got := do(t, sv, apram.Read()); got != int64(4) {
		t.Fatalf("Read = %v, want 4", got)
	}
}

// TestDirectoryFallsBackToSingletons: the directory's commuting
// batches do not preserve Property 1 (see spec.CheckBatchable), so the
// server must degrade to singleton batches — and still serve
// correctly.
func TestDirectoryFallsBackToSingletons(t *testing.T) {
	sv := serve.New(apram.DirectorySpec{}, 2, apram.WithBatchCap(32))
	defer sv.Close()
	if sv.Batching() || sv.BatchCap() != 1 {
		t.Fatalf("directory must not batch; got batching=%v cap=%d", sv.Batching(), sv.BatchCap())
	}
	do(t, sv, apram.Put("k", "v"))
	if got := do(t, sv, apram.Get("k")); got != "v" {
		t.Fatalf("Get = %v, want v", got)
	}
}

// TestBatchCapOne: an explicit cap of 1 disables composition even for
// batch-safe types.
func TestBatchCapOne(t *testing.T) {
	sv := serve.New(apram.CounterSpec{}, 1, apram.WithBatchCap(1))
	defer sv.Close()
	if sv.Batching() {
		t.Fatal("cap 1 must disable batching")
	}
	do(t, sv, apram.Inc(1))
	if got := do(t, sv, apram.Read()); got != int64(1) {
		t.Fatalf("Read = %v", got)
	}
}

// TestCloseFailsPending: Do after Close returns ErrClosed, and Close
// is idempotent.
func TestCloseFailsPending(t *testing.T) {
	sv := serve.New(apram.CounterSpec{}, 2)
	do(t, sv, apram.Inc(1))
	sv.Close()
	sv.Close()
	if _, err := sv.Do(context.Background(), apram.Read()); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("Do after Close: %v, want ErrClosed", err)
	}
}

// TestArgErrors: impossible constructor arguments panic with
// apram.ArgError, matching the package-wide error surface.
func TestArgErrors(t *testing.T) {
	cases := []struct {
		msg string
		f   func()
	}{
		{"apram: serve.New: n = 0: need at least one process slot",
			func() { serve.New(apram.CounterSpec{}, 0) }},
		{"apram: serve.New: batchCap = -1: batch cap must be non-negative",
			func() { serve.New(apram.CounterSpec{}, 1, apram.WithBatchCap(-1)) }},
		{"apram: serve.New: queueDepth = -2: queue depth must be non-negative",
			func() { serve.New(apram.CounterSpec{}, 1, apram.WithQueueDepth(-2)) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				r := recover()
				ae, ok := r.(*apram.ArgError)
				if !ok {
					t.Fatalf("panic %v (%T), want *apram.ArgError", r, r)
				}
				if ae.Error() != tc.msg {
					t.Fatalf("message %q, want %q", ae.Error(), tc.msg)
				}
			}()
			tc.f()
		}()
	}
}

// blockingSpec delegates to the counter but parks Apply until release
// is closed, so tests can hold a slot worker mid-operation. It
// delegates method by method (no embedding) to avoid promoting
// SampleInvocations, which also exercises the no-sampler batching
// fallback.
type blockingSpec struct {
	inner   apram.CounterSpec
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (b *blockingSpec) Name() string                  { return "blocking-counter" }
func (b *blockingSpec) Init() spec.State              { return b.inner.Init() }
func (b *blockingSpec) Equal(x, y spec.State) bool    { return b.inner.Equal(x, y) }
func (b *blockingSpec) Key(s spec.State) string       { return b.inner.Key(s) }
func (b *blockingSpec) Commutes(p, q spec.Inv) bool   { return b.inner.Commutes(p, q) }
func (b *blockingSpec) Overwrites(q, p spec.Inv) bool { return b.inner.Overwrites(q, p) }

func (b *blockingSpec) Apply(s spec.State, inv spec.Inv) (spec.State, any) {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return b.inner.Apply(s, inv)
}

// TestContextCancellation: a Do blocked on a full queue (or awaiting a
// held response) honors its context deadline.
func TestContextCancellation(t *testing.T) {
	bs := &blockingSpec{entered: make(chan struct{}), release: make(chan struct{})}
	sv := serve.New(bs, 1, apram.WithQueueDepth(1))
	if sv.Batching() {
		t.Fatal("spec without SampleInvocations must not batch")
	}

	var wg sync.WaitGroup
	results := make([]error, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, results[i] = sv.Do(context.Background(), apram.Inc(1))
		}()
	}
	<-bs.entered // the worker is parked inside Apply holding one request

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := sv.Do(ctx, apram.Inc(1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocked Do: %v, want DeadlineExceeded", err)
	}

	close(bs.release)
	wg.Wait()
	for i, err := range results {
		if err != nil {
			t.Fatalf("background Do %d: %v", i, err)
		}
	}
	sv.Close()
}

// TestObsIntegration: a Stats probe on the server observes batch
// spans and one batch-flush event per batch, the telemetry batch-size
// distribution counts the same batches, and a run of pure reads rides
// the universal construction's elision (no register writes for the
// read phase).
func TestObsIntegration(t *testing.T) {
	const n = 2
	st := apram.NewStats(n)
	rec := apram.NewRecorder(n)
	reg := telemetry.NewRegistry()
	sv := serve.New(apram.CounterSpec{}, n, apram.WithProbe(obs.Multi(st, rec)),
		apram.WithTelemetry(reg), apram.WithName("obs"))
	defer sv.Close()

	for i := 0; i < 8; i++ {
		do(t, sv, apram.Inc(1))
	}
	publishesAfterIncs := st.Events(obs.EvPublish)
	for i := 0; i < 8; i++ {
		if got := do(t, sv, apram.Read()); got != int64(8) {
			t.Fatalf("Read = %v, want 8", got)
		}
	}

	sum := st.Snapshot()
	bs := reg.Histogram("serve.obs.batch_size", n).Snapshot()
	if bs.Count == 0 || bs.Sum != 16 {
		t.Fatalf("batch accounting: %d batches, %d batched ops", bs.Count, bs.Sum)
	}
	if got := sum.Ops[obs.OpBatch.String()].Count; got != bs.Count {
		t.Fatalf("%q op spans %d != batches %d: %v", obs.OpBatch, got, bs.Count, sum.Ops)
	}
	if st.Events(obs.EvBatch) != bs.Count {
		t.Fatalf("EvBatch %d != batches %d", st.Events(obs.EvBatch), bs.Count)
	}
	if st.Events(obs.EvPureElide) == 0 {
		t.Fatal("pure read batches were not elided")
	}
	if got := st.Events(obs.EvPublish); got != publishesAfterIncs {
		t.Fatalf("pure reads published: %d -> %d publishes", publishesAfterIncs, got)
	}

	var sawBatchSpan bool
	for _, sp := range rec.Spans() {
		if sp.Op == obs.OpBatch {
			sawBatchSpan = true
			break
		}
	}
	if !sawBatchSpan {
		t.Fatal("recorder saw no OpBatch span")
	}
}

// TestNameRegistration: servers register with NameOf like any other
// constructed object — explicitly named or defaulted.
func TestNameRegistration(t *testing.T) {
	named := serve.New(apram.CounterSpec{}, 1, apram.WithName("frontdoor"))
	defer named.Close()
	if got := apram.NameOf(named); got != "frontdoor" {
		t.Fatalf("NameOf = %q", got)
	}
	anon := serve.New(apram.CounterSpec{}, 1)
	defer anon.Close()
	if got := apram.NameOf(anon); got == "" {
		t.Fatal("anonymous server got no default name")
	}
}
