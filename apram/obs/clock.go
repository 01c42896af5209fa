package obs

import "time"

// MonotonicClock returns a wall-clock timestamp source for WithClock
// (and the telemetry registry's default clock): nanoseconds on Go's
// monotonic clock since the moment the source was created. It is the
// clock for native-backend recording, where there is no deterministic
// step counter to borrow — the simulators pass
// pram.System.TotalSteps instead, which is what makes *their* traces
// byte-identical across replays.
//
// Monotonic timelines are well-ordered but not deterministic: two runs
// of the same workload produce different timestamps, and slots observe
// real concurrency, so cross-slot ordering is whatever the hardware
// did. The recorder's per-slot streams remain nondecreasing (each
// slot's records are stamped from its own goroutine in program order).
//
// The source is wait-free (time.Now never blocks) and safe for
// concurrent use from every slot.
func MonotonicClock() func() uint64 {
	epoch := time.Now()
	return func() uint64 { return uint64(time.Since(epoch)) }
}
