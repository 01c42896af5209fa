package native

import (
	"fmt"
	"sync"
	"time"

	"repro/apram/obs"
	"repro/internal/pram"
)

// Run drives every machine to completion, one goroutine per process
// slot, against m. It is the native counterpart of pram.System.Run:
// there is no pluggable scheduler because the Go runtime *is* the
// scheduler — that is the point of the substrate.
//
// Run returns after every goroutine has finished. A machine that
// panics (an ownership violation is the expected kind) stops only its
// own goroutine — the other machines are wait-free and complete
// regardless — and Run reports the first panic as an error.
func Run(m *Mem, machines []pram.Machine) error {
	if len(machines) != m.NProc() {
		panic(fmt.Sprintf("native: %d machines for %d processes", len(machines), m.NProc()))
	}
	errs := make([]error, len(machines))
	var wg sync.WaitGroup
	for p, mc := range machines {
		wg.Add(1)
		go func(p int, mc pram.Machine) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[p] = fmt.Errorf("native: process %d panicked: %v", p, r)
				}
			}()
			for !mc.Done() {
				mc.Step(m)
			}
		}(p, mc)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunTimed drives the machines like Run, additionally recording a
// wall-clock pram.OpSpan for every operation completed by machines
// that implement pram.Progress. Span stamps are nanoseconds on the
// monotonic clock since the run began — the native analogue of the
// simulator's step stamps, with the same overlap semantics (an op
// starts at its machine's first step after the previous completion).
//
// When probe is non-nil, each operation is additionally bracketed with
// obs OpBegin/OpDone callbacks labelled op, from the slot's own
// goroutine — attach an obs.Recorder with a monotonic clock
// (obs.MonotonicClock) to get an exportable latency timeline.
func RunTimed(m *Mem, machines []pram.Machine, probe obs.Probe, op obs.Op) ([]pram.OpSpan, error) {
	if len(machines) != m.NProc() {
		panic(fmt.Sprintf("native: %d machines for %d processes", len(machines), m.NProc()))
	}
	epoch := time.Now()
	spans := make([][]pram.OpSpan, len(machines))
	errs := make([]error, len(machines))
	var wg sync.WaitGroup
	for p, mc := range machines {
		wg.Add(1)
		go func(p int, mc pram.Machine) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[p] = fmt.Errorf("native: process %d panicked: %v", p, r)
				}
			}()
			prog, _ := mc.(pram.Progress)
			done := 0
			if prog != nil {
				done = prog.Completed()
			}
			for !mc.Done() {
				if probe != nil {
					probe.OpBegin(p, op)
				}
				start := time.Since(epoch)
				for !mc.Done() {
					mc.Step(m)
					if prog == nil {
						continue
					}
					if got := prog.Completed(); got > done {
						spans[p] = append(spans[p], pram.OpSpan{
							Proc: p, Index: done,
							Start: int64(start), End: int64(time.Since(epoch)),
						})
						done = got
						break
					}
				}
				if probe != nil {
					probe.OpDone(p, op)
				}
			}
		}(p, mc)
	}
	wg.Wait()
	var out []pram.OpSpan
	for p := range spans {
		out = append(out, spans[p]...)
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
