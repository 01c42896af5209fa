package obs_test

import (
	"sync"
	"testing"
	"time"

	"repro/apram/obs"
)

// TestMonotonicClockAdvances pins the clock source contract: readings
// are nondecreasing, measure real elapsed time, and start near zero at
// source creation.
func TestMonotonicClockAdvances(t *testing.T) {
	clock := obs.MonotonicClock()
	first := clock()
	if first > uint64(time.Second) {
		t.Fatalf("first reading %d ns, want near zero (epoch = source creation)", first)
	}
	time.Sleep(2 * time.Millisecond)
	second := clock()
	if second <= first {
		t.Fatalf("clock did not advance: %d then %d", first, second)
	}
	if second-first < uint64(time.Millisecond) {
		t.Fatalf("slept 2ms but clock advanced only %dns", second-first)
	}
	prev := uint64(0)
	for i := 0; i < 1000; i++ {
		now := clock()
		if now < prev {
			t.Fatalf("clock went backwards: %d after %d", now, prev)
		}
		prev = now
	}
}

// TestRecorderMonotonicWellOrdered is the native-trace ordering
// contract: with WithClock(MonotonicClock()), concurrent slots each produce a
// per-slot record stream with nondecreasing timestamps, every begin
// precedes its end, and the merged timeline is sorted — so a trace of
// a real-goroutine run is always replayable even though it is not
// deterministic.
func TestRecorderMonotonicWellOrdered(t *testing.T) {
	const n, opsPer = 4, 64
	rec := obs.NewRecorder(n, obs.WithClock(obs.MonotonicClock()), obs.WithSpanCapacity(4*opsPer))
	var wg sync.WaitGroup
	for slot := 0; slot < n; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				rec.OpBegin(slot, obs.OpExecute)
				rec.RegReads(slot, 3)
				rec.OpDone(slot, obs.OpExecute)
			}
		}(slot)
	}
	wg.Wait()

	for slot := 0; slot < n; slot++ {
		spans := rec.SlotSpans(slot)
		var prev uint64
		begins, ends := 0, 0
		var openAt uint64
		open := false
		for _, sp := range spans {
			if sp.Time < prev {
				t.Fatalf("slot %d stream went backwards: %d after %d", slot, sp.Time, prev)
			}
			prev = sp.Time
			switch sp.Kind {
			case obs.SpanBegin:
				if open {
					t.Fatalf("slot %d: nested begin", slot)
				}
				openAt, open = sp.Time, true
				begins++
			case obs.SpanEnd:
				if !open {
					t.Fatalf("slot %d: end without begin", slot)
				}
				if sp.Time < openAt {
					t.Fatalf("slot %d: op ended (%d) before it began (%d)", slot, sp.Time, openAt)
				}
				open = false
				ends++
			}
		}
		if begins != opsPer || ends != opsPer {
			t.Fatalf("slot %d recorded %d begins / %d ends, want %d each", slot, begins, ends, opsPer)
		}
	}
	// The merged timeline must come back sorted by (Time, Slot, Seq).
	all := rec.Spans()
	for i := 1; i < len(all); i++ {
		if all[i].Time < all[i-1].Time {
			t.Fatalf("merged timeline unsorted at %d: %d after %d", i, all[i].Time, all[i-1].Time)
		}
	}
}
