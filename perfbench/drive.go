package main

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/apram"
	"repro/apram/serve"
)

const (
	// windowLen is the length of one measurement window. Every rate and
	// percentile is computed per window and reported as the median over
	// the run's windows, so a short host stall moves one window, not
	// the result.
	windowLen = time.Second
	// warmLimit bounds a warm-up that never reaches steady state.
	warmLimit = 60 * time.Second
)

// clock is the run's time base: every timestamp is nanoseconds since
// its start on the monotonic clock.
var clock = time.Now()

func now() int64 { return int64(time.Since(clock)) }

// span is one benchmark-side request span.
type span struct {
	start, end int64
	kind       uint8 // index into opKinds
}

// client is one closed-loop client: its operation list, its position
// in it, its share of the output check and its recorded samples.
type client struct {
	ops []op
	pos int
	// incs counts the increments the client issued per key.
	incs [numKeys]int64
	// last and lastSum are the client's previous read responses per key
	// and of vsum: one client's reads never decrease.
	last      [numKeys]int64
	lastSum   int64
	vsums     int64
	attempted atomic.Int64
	bad       int64
	err       error
	spans     []span // traced phase only, off the heap
}

// meter drives one server's measurement windows: cur is the index of
// the window in progress (-1 outside them), wins collects each window's
// process counters and lats its latencies.
type meter struct {
	cur  atomic.Int32
	wins []sample
	lats []hist
	// host accumulates host CPU time and steal over the windows.
	host cpuStat
}

// newMeter allocates a meter for n windows up front, so the timed phase
// does not grow the heap.
func newMeter(n int) *meter {
	m := &meter{wins: make([]sample, n), lats: make([]hist, n)}
	m.cur.Store(-1)
	return m
}

// measure runs the windows back to back and calls stop after the last.
// A non-nil tracer is switched on for exactly those windows.
func (m *meter) measure(t *tracer, stop func()) {
	if t != nil {
		t.begin()
	}
	start := takeSample()
	prev := start
	m.cur.Store(0)
	for w := range m.wins {
		time.Sleep(time.Duration(start.at + int64(w+1)*int64(windowLen) - now()))
		s := takeSample()
		m.wins[w] = s.sub(prev)
		prev = s
		next := w + 1
		if next == len(m.wins) {
			next = -1
		}
		m.cur.Store(int32(next))
	}
	if t != nil {
		t.end()
	}
	stop()
	m.host = cpuStat{Total: prev.host.Total - start.host.Total, Steal: prev.host.Steal - start.host.Steal}
}

// window returns the index of the window in progress, or -1 outside
// the measured windows.
func (m *meter) window() int { return int(m.cur.Load()) }

// runClosed runs the clients against sys until stop is set. When
// traced, clients also keep their request spans.
func runClosed(sys *system, cs []*client, stop *atomic.Bool, m *meter, traced bool) {
	ctx := context.Background()
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for !stop.Load() {
				o := c.ops[c.pos]
				c.pos = (c.pos + 1) % len(c.ops)
				t0 := now()
				resp, err := sys.tgt.DoRequest(ctx, serve.Request{Inv: o.inv})
				t1 := now()
				c.attempted.Add(1)
				if err == nil {
					err = c.check(o, resp)
				}
				if err != nil {
					c.bad++
					if c.err == nil {
						c.err = fmt.Errorf("%v: %w", o.inv, err)
					}
					continue
				}
				if w := m.window(); w >= 0 {
					m.lats[w].add(t1 - t0)
					if traced {
						push(&c.spans, span{start: t0, end: t1, kind: o.kind})
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// check verifies one closed-loop response as it arrives.
func (c *client) check(o op, resp any) error {
	switch o.inv.Op {
	case "inc", "vinc":
		c.incs[o.key]++
		return nil
	}
	v, ok := resp.(int64)
	if !ok {
		return fmt.Errorf("returned %T", resp)
	}
	last := &c.lastSum
	if o.key >= 0 {
		last = &c.last[o.key]
	} else {
		c.vsums++
	}
	if v < *last {
		return fmt.Errorf("read %d after %d", v, *last)
	}
	*last = v
	return nil
}

// closedWant sums the clients' increments per key, or returns the
// first failure a client saw.
func closedWant(cs []*client) ([]int64, error) {
	want := make([]int64, numKeys)
	for _, c := range cs {
		if c.err != nil {
			return nil, c.err
		}
		for k, n := range c.incs {
			want[k] += n
		}
	}
	return want, nil
}

// verify checks the object once its traffic has stopped: want[k] is
// the number of increments of key k issued (key 0 for the counter).
// The counter's read must equal its incs; the keyed counter's vread of
// every key must equal that key's vincs, and vsum their total. It
// returns the number of operations it issued.
func verify(sys *system, keyed bool, want []int64) (int64, error) {
	ctx := context.Background()
	// get issues vread(k) for k >= 0, and read or vsum for k < 0.
	get := func(k int, want int64) error {
		r := serve.Request{Inv: apram.Read()}
		switch {
		case keyed && k >= 0:
			r.Inv = apram.VRead("k" + strconv.Itoa(k))
		case keyed:
			r.Inv = apram.VSum()
		}
		resp, err := sys.tgt.DoRequest(ctx, r)
		if err != nil {
			return fmt.Errorf("final %v: %w", r.Inv, err)
		}
		if got, ok := resp.(int64); !ok || got != want {
			return fmt.Errorf("final %v = %v, want %d", r.Inv, resp, want)
		}
		return nil
	}
	if !keyed {
		return 1, get(-1, want[0])
	}
	var total int64
	for k, n := range want {
		total += n
		if err := get(k, n); err != nil {
			return int64(k + 1), err
		}
	}
	return int64(len(want) + 1), get(-1, total)
}

// warmClosed drives the clients until the server is at steady state:
// every client has made one full pass over its stream, so the object
// holds every key the run will touch, and every object has finished its
// first truncation epochs.
func warmClosed(sys *system, cs []*client) error {
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		runClosed(sys, cs, &stop, newMeter(0), false)
		close(done)
	}()
	passed := func() bool {
		for _, c := range cs {
			if c.attempted.Load() < int64(len(c.ops)) {
				return false
			}
		}
		return true
	}
	var err error
	deadline := time.Now().Add(warmLimit)
	for {
		time.Sleep(time.Millisecond)
		if passed() && sys.warm() {
			break
		}
		if time.Now().After(deadline) {
			err = fmt.Errorf("warm-up did not reach steady state within %v", warmLimit)
			break
		}
	}
	stop.Store(true)
	<-done
	return err
}
