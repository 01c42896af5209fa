package snapshot

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/apram/obs"
	"repro/internal/lattice"
)

func TestNativeScanBasics(t *testing.T) {
	s := New(3, lattice.MaxInt{})
	if s.N() != 3 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.ReadMax(0); !lattice.Equal(s.Lattice(), got, s.Lattice().Bottom()) {
		t.Errorf("empty ReadMax = %v, want bottom", got)
	}
	s.Update(0, int64(5))
	s.Update(1, int64(9))
	if got := s.ReadMax(2).(int64); got != 9 {
		t.Errorf("ReadMax = %d, want 9", got)
	}
	if got := s.Scan(2, int64(20)).(int64); got != 20 {
		t.Errorf("Scan(20) = %d, want 20 (includes own contribution)", got)
	}
}

// timestamped wraps ops with a global logical clock so the test can
// assert real-time ordering: if a's post-stamp < b's pre-stamp, a
// entirely preceded b.
type stampedResult struct {
	pre, post uint64
	val       any
}

func TestNativeConcurrentLinearizability(t *testing.T) {
	const n = 8
	const opsPer = 40
	lat := lattice.SetUnion{}
	s := New(n, lat)
	var clock atomic.Uint64
	results := make([][]stampedResult, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for k := 0; k < opsPer; k++ {
				var v any = lat.Bottom()
				if k%2 == 0 {
					v = lattice.NewSet(fmt.Sprintf("p%d.%d", p, k))
				}
				pre := clock.Add(1)
				r := s.Scan(p, v)
				post := clock.Add(1)
				results[p] = append(results[p], stampedResult{pre, post, r})
			}
		}(p)
	}
	wg.Wait()

	var all []stampedResult
	for _, rs := range results {
		all = append(all, rs...)
	}
	// Pairwise comparability (Lemma 32) and real-time order (Lemma 29).
	for i := range all {
		for j := range all {
			if i == j {
				continue
			}
			a, b := all[i], all[j]
			if !lattice.Comparable(lat, a.val, b.val) {
				t.Fatalf("incomparable scan results")
			}
			if a.post < b.pre && !lat.Leq(a.val, b.val) {
				t.Fatalf("real-time order violated")
			}
		}
	}
	// Per-process monotonicity.
	for p, rs := range results {
		for k := 1; k < len(rs); k++ {
			if !lat.Leq(rs[k-1].val, rs[k].val) {
				t.Fatalf("p=%d: results not monotone", p)
			}
		}
	}
	// The final ReadMax must contain every contributed key.
	final := s.ReadMax(0).(lattice.Set)
	for p := 0; p < n; p++ {
		for k := 0; k < opsPer; k += 2 {
			key := fmt.Sprintf("p%d.%d", p, k)
			if !final.Has(key) {
				t.Fatalf("final state lost key %s", key)
			}
		}
	}
}

func TestNativeValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, lattice.MaxInt{}) },
		func() { New(2, lattice.MaxInt{}).Scan(2, int64(1)) },
		func() { New(2, lattice.MaxInt{}).Scan(-1, int64(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestArraySnapshotSemantics(t *testing.T) {
	impls := map[string]func(n int) ArraySnapshot{
		"Array":         func(n int) ArraySnapshot { return NewArray(n) },
		"Lock":          func(n int) ArraySnapshot { return NewLock(n) },
		"DoubleCollect": func(n int) ArraySnapshot { return NewDoubleCollect(n) },
		"Afek":          func(n int) ArraySnapshot { return NewAfek(n) },
	}
	for name, mk := range impls {
		t.Run(name, func(t *testing.T) {
			a := mk(3)
			if a.N() != 3 {
				t.Fatalf("N = %d", a.N())
			}
			view := a.Scan(0)
			for i, v := range view {
				if v != nil {
					t.Errorf("fresh slot %d = %v, want nil", i, v)
				}
			}
			a.Update(0, "x")
			a.Update(2, "z")
			a.Update(0, "x2") // overwrite
			view = a.Scan(1)
			if view[0] != "x2" || view[1] != nil || view[2] != "z" {
				t.Errorf("view = %v", view)
			}
		})
	}
}

// TestArrayConcurrentViews: under concurrency, every scanned view must
// be "sane": per-slot values only move forward (each writer writes
// increasing integers), and views from any one scanner are
// slot-wise monotone.
func TestArrayConcurrentViews(t *testing.T) {
	impls := map[string]func(n int) ArraySnapshot{
		"Array": func(n int) ArraySnapshot { return NewArray(n) },
		"Afek":  func(n int) ArraySnapshot { return NewAfek(n) },
		"Lock":  func(n int) ArraySnapshot { return NewLock(n) },
	}
	for name, mk := range impls {
		t.Run(name, func(t *testing.T) {
			const writers = 3
			const scans = 200
			a := mk(writers + 1)
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 1; ; i++ {
						select {
						case <-stop:
							return
						default:
							a.Update(w, i)
						}
					}
				}(w)
			}
			scanner := writers
			prev := make([]int, writers)
			for k := 0; k < scans; k++ {
				view := a.Scan(scanner)
				for w := 0; w < writers; w++ {
					if view[w] == nil {
						continue
					}
					cur := view[w].(int)
					if cur < prev[w] {
						t.Fatalf("slot %d went backwards: %d then %d", w, prev[w], cur)
					}
					prev[w] = cur
				}
			}
			close(stop)
			wg.Wait()
		})
	}
}

// TestAfekWaitFreeUnderContention: the Afek scan terminates even while
// updates flow continuously (borrowed views), unlike DoubleCollect.
func TestAfekWaitFreeUnderContention(t *testing.T) {
	a := NewAfek(2)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				a.Update(0, i)
			}
		}
	}()
	for k := 0; k < 500; k++ {
		if view := a.Scan(1); view == nil {
			t.Fatal("Afek scan returned nil")
		}
	}
	close(stop)
	<-done
}

// retryAdversary plays a peer that updates its element each time the
// scanner reports a dirty double collect, so once one collect pair of a
// Scan races with a writer, every later pair of that Scan is dirty too:
// the starvation schedule of TestDoubleCollectStarvation, played natively.
type retryAdversary struct {
	obs.Probe
	dc   *DoubleCollect
	slot int
	k    int
}

func (a *retryAdversary) Event(_ int, e obs.Event) {
	if e == obs.EvRetry {
		a.k++
		a.dc.Update(a.slot, a.k)
	}
}

// TestDoubleCollectRetryBound: MaxRetries bounds a Scan under
// contention. A writer on element 0 supplies the first dirty collect
// pair and the adversary on element 2 keeps the rest dirty, so the first
// Scan that retries must give up after exactly MaxRetries+1 retries and
// return nil instead of retrying for ever.
func TestDoubleCollectRetryBound(t *testing.T) {
	dc := NewDoubleCollect(3)
	dc.MaxRetries = 4
	dc.Instrument(&retryAdversary{Probe: obs.Nop, dc: dc, slot: 2}, false)
	stop := make(chan struct{})
	done := make(chan struct{})
	started := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				dc.Update(0, i)
			}
			if i == 0 {
				close(started)
			}
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	<-started
	deadline := time.Now().Add(10 * time.Second)
	for scans := 1; ; scans++ {
		view := dc.Scan(1)
		if r := dc.Retries.Load(); r > 0 {
			if view != nil {
				t.Fatalf("scan %d retried %d times and returned %v; MaxRetries = %d should bound it", scans, r, view, dc.MaxRetries)
			}
			if want := dc.MaxRetries + 1; r != want {
				t.Fatalf("bounded scan retried %d times, want %d", r, want)
			}
			return
		}
		if view == nil {
			t.Fatalf("scan %d returned nil without retrying", scans)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no scan retried in %d scans against a concurrent writer", scans)
		}
	}
}

func TestLockDoLocked(t *testing.T) {
	l := NewLock(2)
	entered := make(chan struct{})
	release := make(chan struct{})
	go l.DoLocked(func() {
		close(entered)
		<-release
	})
	<-entered
	// Another op now blocks until release — verify with a timeout-free
	// handshake: start the op, confirm it has not completed, release,
	// confirm it completes.
	opDone := make(chan struct{})
	go func() {
		l.Update(0, "v")
		close(opDone)
	}()
	select {
	case <-opDone:
		t.Fatal("Update completed while lock was held")
	default:
	}
	close(release)
	<-opDone
	if got := l.Scan(1)[0]; got != "v" {
		t.Errorf("Scan = %v", got)
	}
}
