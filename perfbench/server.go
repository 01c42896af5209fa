package main

import (
	"encoding/gob"
	"fmt"
	"io"
	"runtime/debug"
	"sync/atomic"
	"time"

	"repro/apram/obs"
)

// serverRun is one server's measurement, written by the child process
// that ran it and pooled by the parent.
type serverRun struct {
	// Err is the server's failure: an operation error or a failed
	// output check.
	Err string
	// Setup is the wall time from constructing the server to the end
	// of its warm-up, in seconds.
	Setup   float64
	Windows []window
	// Attempted and Failed count every operation the server was sent,
	// warm-up and check included.
	Attempted, Failed int64
	// Host is the host's CPU time and steal over the measured windows.
	Host cpuStat
	// Trace is the traced phase's per-layer material.
	Trace *traceRun
}

// window is one measurement window's end-to-end figures.
type window struct {
	Ops, Seconds float64
	P50, P99     float64 // latency quantiles, µs
	CPU          float64 // process user + system CPU, ms
	Allocs, GCs  float64
	PeakMB       float64
}

// serveOne measures server i and writes its measurement to stdout for
// the parent process, also when the server failed.
func serveOne(s *spec, seed int64, seconds, i int, traced bool, out string, stdout, stderr io.Writer) int {
	r := &serverRun{}
	if err := measureServer(s, seed, seconds, i, traced, out, r); err != nil {
		r.Err = err.Error()
	}
	if err := gob.NewEncoder(stdout).Encode(r); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if r.Err != "" {
		return 1
	}
	return 0
}

// measureServer builds, warms, measures and checks server i of the
// schedule, which measures windows [i·seconds/servers,
// (i+1)·seconds/servers) of the run.
func measureServer(s *spec, seed int64, seconds, i int, traced bool, out string, r *serverRun) error {
	evs, err := s.stream(seed)
	if err != nil {
		return err
	}
	inputs, err := s.inputs(evs)
	if err != nil {
		return err
	}
	m := newMeter((i+1)*seconds/servers - i*seconds/servers)
	spans := spanCap(len(m.wins))
	var pr *probe
	var p obs.Probe // a nil *probe must stay a nil interface
	if traced {
		if pr, err = newProbe(s.slotCount(), spans); err != nil {
			return err
		}
		p = pr
	}
	cs := make([]*client, len(inputs))
	for k, ops := range inputs {
		cs[k] = &client{ops: ops}
	}

	t0 := now()
	sys := s.build(p)
	defer sys.tgt.Close()
	if err := warmClosed(sys, cs); err != nil {
		return err
	}
	r.Setup = time.Duration(now() - t0).Seconds()

	var tracing *tracer
	if traced {
		tracing = &tracer{pr: pr, sys: sys}
		for _, c := range cs {
			if c.spans, err = offHeap[span](spans); err != nil {
				return err
			}
		}
	}
	if len(m.wins) > 0 {
		// Return the warm-up's garbage to the OS, so the windows'
		// resident set is the server's steady state.
		debug.FreeOSMemory()
		if err := checkProc(); err != nil {
			return fmt.Errorf("host counters: %w", err)
		}
		var stop atomic.Bool
		done := make(chan struct{})
		go func() {
			runClosed(sys, cs, &stop, m, traced)
			close(done)
		}()
		m.measure(tracing, func() { stop.Store(true) })
		<-done
	}
	cross, err := check(s, sys, cs, r)
	sys.tgt.Close()
	r.Windows, r.Host = m.figures(), m.host
	if err != nil || !traced {
		return err
	}
	if r.Trace, err = summarize(s, sys, pr, cs, cross, tracing); err != nil {
		return err
	}
	return writeTrace(out, s.name, seed, i+1, cs, pr, tracing.profile)
}

// check runs the output check once traffic has stopped, tallies the
// server's operations into r and returns how many of them were
// cross-shard.
func check(s *spec, sys *system, cs []*client, r *serverRun) (cross int64, err error) {
	want, err := closedWant(cs)
	for _, c := range cs {
		r.Attempted += c.attempted.Load()
		r.Failed += c.bad
		cross += c.vsums
	}
	if err != nil {
		return cross, err
	}
	n, err := verify(sys, s.keyed(), want)
	r.Attempted += n
	if s.keyed() {
		cross++
	}
	return cross, err
}

// figures turns the meter's windows into their end-to-end figures.
func (m *meter) figures() []window {
	ws := make([]window, len(m.wins))
	for w, s := range m.wins {
		h := &m.lats[w]
		ws[w] = window{
			Ops:     float64(h.count()),
			Seconds: time.Duration(s.at).Seconds(),
			P50:     h.quantile(0.50) / 1e3,
			P99:     h.quantile(0.99) / 1e3,
			CPU:     float64(s.cpu) / 1e6,
			Allocs:  float64(s.allocs),
			GCs:     float64(s.gcs),
			PeakMB:  s.peakMB,
		}
	}
	return ws
}
