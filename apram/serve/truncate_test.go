package serve_test

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/apram"
	"repro/apram/serve"
)

// TestServeTruncationBoundsMemory: a truncation-enabled server under
// sustained mixed traffic keeps the entry graph bounded — epochs run,
// entries are freed, and the served values stay exact. After the
// traffic stops, the idle tickers alone must drive any in-flight epoch
// home (no operation may be required to finish a fold).
func TestServeTruncationBoundsMemory(t *testing.T) {
	const n, clients, per = 4, 8, 1500
	sv := serve.New(apram.CounterSpec{}, n,
		apram.WithTruncateEvery(64), apram.WithBatchCap(8))
	defer sv.Close()
	if !sv.Object().TruncationEnabled() {
		t.Fatal("truncation should be enabled for the counter")
	}

	var want atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				if k%5 == 4 {
					if _, err := sv.Do(context.Background(), apram.Read()); err != nil {
						t.Errorf("Read: %v", err)
						return
					}
				} else {
					amt := int64(c%3 + 1)
					if _, err := sv.Do(context.Background(), apram.Inc(amt)); err != nil {
						t.Errorf("Inc: %v", err)
						return
					}
					want.Add(amt)
				}
			}
		}(c)
	}
	wg.Wait()

	got, err := sv.Do(context.Background(), apram.Read())
	if err != nil {
		t.Fatal(err)
	}
	if got.(int64) != want.Load() {
		t.Fatalf("final read %v, want %d", got, want.Load())
	}

	// The idle tickers must finish any epoch still in flight.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := sv.Object().TruncStats()
		if st.Epochs > 0 && st.Phase == "idle" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("epoch never completed from idle ticks: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := sv.Object().TruncStats()
	if st.Freed == 0 {
		t.Fatalf("nothing freed: %+v", st)
	}
	if r := sv.Object().Retained(); uint64(r) > st.Freed+uint64(r)/2 && r > 2000 {
		t.Fatalf("retained %d entries, freed only %d — memory not bounded", r, st.Freed)
	}
}

// TestServeCloseDrainsDuringTruncation closes the server while clients
// are mid-flight and truncation epochs are continuously proposed (tiny
// `every`). Every Do must return — a response for executed requests,
// ErrClosed for drained ones — and Close must not deadlock against the
// workers' truncation ticks. This is the ordering the drain argument
// must survive: a request can be queued behind a worker that is
// lending its turn to a truncation fold when quit closes.
func TestServeCloseDrainsDuringTruncation(t *testing.T) {
	for round := 0; round < 5; round++ {
		sv := serve.New(apram.CounterSpec{}, 3,
			apram.WithTruncateEvery(4), apram.WithBatchCap(4), apram.WithQueueDepth(16))
		var served, drained atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < 6; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; ; k++ {
					_, err := sv.Do(context.Background(), apram.Inc(1))
					switch {
					case err == nil:
						served.Add(1)
					case errors.Is(err, serve.ErrClosed):
						drained.Add(1)
						return
					default:
						t.Errorf("Do: %v", err)
						return
					}
				}
			}()
		}
		// Let traffic (and epochs) build, then pull the plug mid-flight.
		time.Sleep(10 * time.Millisecond)
		done := make(chan struct{})
		go func() { sv.Close(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Close deadlocked during a truncation epoch")
		}
		wg.Wait()
		if served.Load() == 0 {
			t.Fatal("no request was ever served")
		}
		// After Close, new requests fail fast.
		if _, err := sv.Do(context.Background(), apram.Read()); !errors.Is(err, serve.ErrClosed) {
			t.Fatalf("post-Close Do: %v, want ErrClosed", err)
		}
	}
}

// TestServeTruncationIdleEpochCompletion: traffic in one burst, then
// silence — the idle tickers alone complete the epoch proposed by the
// burst, with no client issuing further operations.
func TestServeTruncationIdleEpochCompletion(t *testing.T) {
	sv := serve.New(apram.CounterSpec{}, 4,
		apram.WithTruncateEvery(8), apram.WithBatchCap(1))
	defer sv.Close()
	for k := 0; k < 100; k++ {
		if _, err := sv.Do(context.Background(), apram.Inc(1)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := sv.Object().TruncStats(); st.Epochs > 0 && st.Phase == "idle" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle tickers never completed an epoch: %+v", sv.Object().TruncStats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// bareSpec hides a spec's optional extensions (purity, partitioning,
// samples) behind the bare Spec interface, modelling a user-defined
// type that implements nothing else.
type bareSpec struct{ apram.Spec }

// TestServeTruncationGracefulDegradation: a spec that implements only
// the bare Spec interface truncates like a built-in one. Epochs
// complete, entries are freed, and the served value stays exact.
func TestServeTruncationGracefulDegradation(t *testing.T) {
	const ops = 40
	sv := serve.New(bareSpec{apram.CounterSpec{}}, 2, apram.WithTruncateEvery(8))
	defer sv.Close()
	if !sv.Object().TruncationEnabled() {
		t.Fatal("truncation should be enabled for a bare spec")
	}
	for k := 0; k < ops; k++ {
		if _, err := sv.Do(context.Background(), apram.Inc(1)); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := sv.Object().TruncStats()
		if st.Epochs > 0 && st.Freed > 0 && st.Phase == "idle" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bare spec never completed an epoch: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	got, err := sv.Do(context.Background(), apram.Read())
	if err != nil {
		t.Fatal(err)
	}
	if got.(int64) != ops {
		t.Fatalf("Read = %v, want %d", got, ops)
	}
}
