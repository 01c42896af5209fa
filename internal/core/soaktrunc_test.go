package core

import (
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
)

// soakOps returns the operation budget for the bounded-memory soak:
// a CI-sized default, or APRAM_SOAK_OPS (e.g. 10000000 for the full
// overnight run — the tentpole claim is flat RSS at 10M+ operations).
func soakOps(def int) int {
	if v := os.Getenv("APRAM_SOAK_OPS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// heapInUse forces a collection and reports live heap bytes
// (HeapAlloc) plus the in-use span footprint (HeapInuse — includes
// fragmentation, which is what an RSS watcher would see).
func heapInUse() (alloc, inuse uint64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.HeapInuse
}

// checkSoak asserts the bounded-memory claim after a soak: the live
// heap after the full run must sit within a fixed slack of the
// early-run baseline (an unbounded entry graph at these op counts
// would grow by tens of megabytes), the retained entry count must be
// bounded by the epoch cadence rather than the history length, and
// epochs must actually have completed.
func checkSoak(t *testing.T, u *Universal, total int, base, final, finalInuse uint64) {
	t.Helper()
	st := u.TruncStats()
	if st.Epochs == 0 {
		t.Fatalf("no truncation epoch completed across %d ops", total)
	}
	if r := u.Retained(); r > 10_000 {
		t.Fatalf("retained %d entries after %d ops — graph is not bounded", r, total)
	}
	const slack = 16 << 20
	if final > base+slack {
		t.Fatalf("live heap grew %d -> %d bytes (inuse %d) over %d ops with %d retained entries (slack %d) — memory is not bounded",
			base, final, finalInuse, total, u.Retained(), uint64(slack))
	}
	t.Logf("%d ops: %d epochs, %d entries freed, %d retained, live heap %d -> %d bytes (inuse %d)",
		total, st.Epochs, st.Freed, u.Retained(), base, final, finalInuse)
}

// The native soak stops early, and fails, when either guard trips:
//
//   - soakHeapLimit, the live heap: the same 256 MiB the CI soak row
//     sets as GOMEMLIMIT. A bounded graph (a few hundred retained
//     entries) lives in a few megabytes; a live heap this large means
//     the fold has fallen behind traffic.
//   - soakOpBudget per operation of wall time: a bounded run costs
//     6–15 µs per operation on one CPU, at most a thirtieth of this.
//
// Running on past either only grows the graph, and each rebuild over
// it, until go test's timeout takes the rest of the package down too.
const (
	soakHeapLimit = 256 << 20
	soakOpBudget  = 500 * time.Microsecond
)

// watchSoak polls until done is closed. It stores the first live-heap
// sample (as of the last GC) above limit in over, or sets late once
// deadline passes. It starts from a forced GC: the sample otherwise
// reports whatever an earlier test left live at the last collection,
// and a heap that once tripped the limit would trip every later watch
// in the same binary before the next GC.
func watchSoak(limit uint64, deadline time.Time, over *atomic.Uint64, late *atomic.Bool, done <-chan struct{}) {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			return
		case now := <-tick.C:
			if now.After(deadline) {
				late.Store(true)
				return
			}
		}
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > limit {
			over.Store(v)
			return
		}
	}
}

// TestWatchSoakStartsFromFreshHeap drops tens of megabytes that the
// last collection saw live, then watches with a limit below them: the
// watch must sample the heap as it is now, not as of that collection.
func TestWatchSoakStartsFromFreshHeap(t *testing.T) {
	const size = 64 << 20
	ballast := make([]byte, size)
	runtime.GC()
	runtime.KeepAlive(ballast)
	var over atomic.Uint64
	var late atomic.Bool
	done := make(chan struct{})
	time.AfterFunc(200*time.Millisecond, func() { close(done) })
	watchSoak(size/2, time.Now().Add(time.Minute), &over, &late, done)
	if v := over.Load(); v != 0 {
		t.Fatalf("watch reported a live heap of %d bytes (limit %d) after the ballast was dropped", v, size/2)
	}
}

// TestSoakTruncationBoundedMemoryNative is the tentpole soak on the
// native backend: n goroutines hammer a truncation-enabled counter and
// the live heap must stay flat — the checkpoint-and-truncate protocol
// folds the dominated history into the checkpoint as fast as traffic
// creates it. The final read cross-checks correctness at scale: no
// increment may be lost or duplicated through any number of cuts. The
// live heap and the wall time are also watched during the run: past
// either guard the workers stop and the test fails at once.
func TestSoakTruncationBoundedMemoryNative(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const n = 4
	total := soakOps(400_000)
	u := New(types.Counter{}, n)
	u.EnableTruncation(64)

	var over atomic.Uint64
	var late atomic.Bool
	start := time.Now()
	budget := time.Duration(total) * soakOpBudget
	watchDone := make(chan struct{})
	go watchSoak(soakHeapLimit, start.Add(budget), &over, &late, watchDone)
	defer close(watchDone)

	warm := total / 10
	var base uint64
	var once sync.Once
	var barrier sync.WaitGroup
	barrier.Add(n)
	var wg sync.WaitGroup
	var want int64
	var issued atomic.Int64
	var mu sync.Mutex
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			per := total / n
			var local int64
			arrived := false
			defer func() {
				if !arrived {
					barrier.Done() // release the others if stopped early
				}
			}()
			for i := 0; i < per; i++ {
				if over.Load() != 0 || late.Load() {
					break
				}
				// Rotate the scheduler every operation: on few-core boxes
				// goroutines otherwise run in long bursts, and an epoch
				// proposed during one worker's burst would wait out every
				// other worker's entire burst for its acks (the serving
				// layer gets the same fairness from idle TruncTicks).
				runtime.Gosched()
				if i*n == warm {
					// All workers pause once near the 10% mark so the
					// baseline heap sample sees a quiesced graph.
					arrived = true
					barrier.Done()
					barrier.Wait()
					once.Do(func() { base, _ = heapInUse() })
				}
				if i%8 == 7 {
					u.Execute(p, types.Read())
				} else {
					u.Execute(p, types.Inc(1))
					local++
				}
				issued.Add(1)
			}
			mu.Lock()
			want += local
			mu.Unlock()
		}(p)
	}
	wg.Wait()
	if live := over.Load(); live != 0 {
		t.Fatalf("live heap reached %d bytes (limit %d) after %d of %d ops with %d retained entries and %d epochs — memory is not bounded",
			live, uint64(soakHeapLimit), issued.Load(), total, u.Retained(), u.TruncStats().Epochs)
	}
	if late.Load() {
		t.Fatalf("only %d of %d ops in %v (budget %v per op) with %d retained entries and %d epochs — local work is not bounded",
			issued.Load(), total, time.Since(start).Round(time.Millisecond), soakOpBudget, u.Retained(), u.TruncStats().Epochs)
	}
	if got := u.Execute(0, types.Read()).(int64); got != want {
		t.Fatalf("final read %d, want %d — an increment was lost or duplicated across cuts", got, want)
	}
	// Drain. The watermark can never pass the minimum anchor, and a
	// slot's anchor only advances when it publishes — so the moment
	// the first worker exits, everything above its final anchor is
	// stuck live. A long-running serve never hits this floor: traffic
	// trickles across all slots and idle ones lend 1ms TruncTicks.
	// Mirror that here — one publication per slot per round to advance
	// the frozen anchors, plus ticks to drive the epochs home — so the
	// final heap sample sees the steady state, not the shutdown tail.
	var drained int64
	for r := 0; r < 64 && u.Retained() > 512; r++ {
		for p := 0; p < n; p++ {
			u.Execute(p, types.Inc(1))
			drained++
			u.TruncTick(p)
		}
	}
	if got := u.Execute(0, types.Read()).(int64); got != want+drained {
		t.Fatalf("post-drain read %d, want %d", got, want+drained)
	}
	alloc, inuse := heapInUse()
	checkSoak(t, u, total, base, alloc, inuse)
}

// TestSoakTruncationBoundedMemorySim is the same soak on the simulated
// backend (step-granular engine, deterministic round-robin): fewer
// default operations — each one costs a full scheduler round — but the
// same flat-heap and bounded-retention assertions.
func TestSoakTruncationBoundedMemorySim(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const n = 4
	total := soakOps(400_000) / 5
	u := NewSimulated(types.Counter{}, n, nil)
	u.EnableTruncation(64)
	var want, base uint64
	warm := total / 10
	for i := 0; i < total; i++ {
		if i == warm {
			base, _ = heapInUse()
		}
		p := i % n
		if i%8 == 7 {
			u.Execute(p, types.Read())
		} else {
			u.Execute(p, types.Inc(1))
			want++
		}
	}
	if got := u.Execute(0, types.Read()).(int64); uint64(got) != want {
		t.Fatalf("final read %d, want %d", got, want)
	}
	alloc, inuse := heapInUse()
	checkSoak(t, u, total, base, alloc, inuse)
}
