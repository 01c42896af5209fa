package apram_test

// Stress tests for the probe layer under real concurrency: 8 goroutines
// each driving their own process slot of a shared structure while a
// sampler goroutine concurrently calls Stats accessors and Snapshot.
// Run with -race (CI does). The invariants checked:
//
//   - aggregate reads/writes observed by the sampler are monotone
//     non-decreasing over time;
//   - after all workers join, the per-slot sums in a Snapshot equal the
//     aggregate totals, and per-op step totals equal reads+writes.

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/apram"
	"repro/apram/obs"
)

// sampleMonotone polls aggregate totals until stop is set, failing if
// a total ever decreases. Returns a WaitGroup-style done channel.
func sampleMonotone(t *testing.T, st *obs.Stats, stop *atomic.Bool) chan struct{} {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var lastR, lastW uint64
		for !stop.Load() {
			r, w := st.Reads(), st.Writes()
			// Reads and Writes sweep the slots independently, so r and
			// w need not be a consistent cut — but each is a sum of
			// monotone per-slot counters, hence itself monotone.
			if r < lastR {
				t.Errorf("aggregate reads went backwards: %d -> %d", lastR, r)
				return
			}
			if w < lastW {
				t.Errorf("aggregate writes went backwards: %d -> %d", lastW, w)
				return
			}
			lastR, lastW = r, w
			st.Snapshot() // concurrent Snapshot must also be safe
		}
	}()
	return done
}

// checkConsistent verifies a quiescent Snapshot's internal accounting.
func checkConsistent(t *testing.T, st *obs.Stats) {
	t.Helper()
	sum := st.Snapshot()
	var perSlotR, perSlotW uint64
	for _, s := range sum.PerSlot {
		perSlotR += s.Reads
		perSlotW += s.Writes
	}
	if perSlotR != sum.Reads || perSlotW != sum.Writes {
		t.Errorf("per-slot sums (%d reads, %d writes) != aggregate (%d, %d)",
			perSlotR, perSlotW, sum.Reads, sum.Writes)
	}
	if got, want := st.Reads(), sum.Reads; got != want {
		t.Errorf("Reads() = %d, Snapshot says %d", got, want)
	}
	var steps uint64
	for _, op := range sum.Ops {
		steps += op.Steps
	}
	if steps != sum.Reads+sum.Writes {
		t.Errorf("op step windows sum to %d, want reads+writes = %d",
			steps, sum.Reads+sum.Writes)
	}
}

func TestStressSnapshotProbe(t *testing.T) {
	const n, ops = 8, 400
	st := obs.NewStats(n)
	s := apram.NewSnapshot(n, apram.MaxInt{}, apram.WithProbe(st))

	var stop atomic.Bool
	done := sampleMonotone(t, st, &stop)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				s.Scan(p, int64(p*ops+i))
			}
		}(p)
	}
	wg.Wait()
	stop.Store(true)
	<-done

	checkConsistent(t, st)
	sum := st.Snapshot()
	if got, want := sum.Ops["scan"].Count, uint64(n*ops); got != want {
		t.Errorf("scan count = %d, want %d", got, want)
	}
	// Every one of the n*ops Scans costs exactly the Section 6.2
	// amounts regardless of interleaving.
	if got, want := sum.Writes, uint64(n*ops*(n+1)); got != want {
		t.Errorf("writes = %d, want %d", got, want)
	}
	if got, want := sum.Reads, uint64(n*ops*(n*n-1)); got != want {
		t.Errorf("reads = %d, want %d", got, want)
	}
}

func TestStressCounterProbe(t *testing.T) {
	const n, ops = 8, 300
	st := obs.NewStats(n)
	c := apram.NewCounter(n, apram.WithProbe(st))

	var stop atomic.Bool
	done := sampleMonotone(t, st, &stop)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				c.Inc(p, 1)
				if i%16 == 0 {
					c.Read(p)
				}
			}
		}(p)
	}
	wg.Wait()
	stop.Store(true)
	<-done

	checkConsistent(t, st)
	if got, want := c.Read(0), int64(n*ops); got != want {
		t.Errorf("counter value = %d, want %d", got, want)
	}
	sum := st.Snapshot()
	if got, want := sum.Ops["counter-add"].Count, uint64(n*ops); got != want {
		t.Errorf("counter-add count = %d, want %d", got, want)
	}
}

func TestStressConsensusProbe(t *testing.T) {
	const n = 8
	st := obs.NewStats(n)
	c := apram.NewBinaryConsensus(n, apram.WithSeed(42), apram.WithProbe(st))

	var stop atomic.Bool
	done := sampleMonotone(t, st, &stop)
	decided := make([]int, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			decided[p] = c.Decide(p, p%2)
		}(p)
	}
	wg.Wait()
	stop.Store(true)
	<-done

	for p := 1; p < n; p++ {
		if decided[p] != decided[0] {
			t.Fatalf("disagreement: process %d decided %d, process 0 decided %d",
				p, decided[p], decided[0])
		}
	}
	checkConsistent(t, st)
	sum := st.Snapshot()
	if got, want := sum.Ops["decide"].Count, uint64(n); got != want {
		t.Errorf("decide count = %d, want %d", got, want)
	}
	if sum.Events["round"] == 0 || sum.Events["coin-flip"] == 0 {
		t.Errorf("expected round and coin-flip events, got %v", sum.Events)
	}
}
