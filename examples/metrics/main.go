// A wait-free metrics registry: the whole public API in one realistic
// application.
//
// A telemetry library must never stall the application it observes —
// a metrics write that can block on a lock held by a pre-empted thread
// is exactly the failure Section 1 of the paper rules out. This
// example assembles a registry whose every operation is wait-free:
//
//   - request counters:        the direct wait-free counter
//   - high-water-mark gauges:  a PRMW object over the max family
//   - per-worker last samples: an atomic array snapshot (torn-free cuts)
//   - service metadata:        a LWW directory via the universal
//     construction
//   - a flush epoch everyone agrees on: randomized consensus
//
// The front door is apram/telemetry: a Registry whose histogram keeps
// one cache-line-separated bucket block per worker (the same
// single-writer discipline as the structures it observes), merged only
// at read time — so recording a latency sample is lock-free and
// allocation-free too. At exit the registry is exported in the
// Prometheus text exposition format.
//
// Run it:
//
//	go run ./examples/metrics
package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/apram"
	"repro/apram/obs"
	"repro/apram/telemetry"
)

// sample is one worker's most recent latency observation.
type sample struct {
	Seq       int
	LatencyMs float64
}

func main() {
	const workers = 6
	admin := workers // extra slot for the reporting goroutine

	// One probe across the registry: telemetry for the telemetry. The
	// flight recorder is itself wait-free (per-slot single-writer
	// rings), so instrumenting costs the workers nothing they can block
	// on — and afterwards its spans break the registry's cost down per
	// operation.
	rec := apram.NewRecorder(workers+1, obs.WithSpanCapacity(8192))

	// The application-facing registry: counters and gauges are single
	// atomics, the histogram records into the calling worker's own
	// bucket block. Nothing on the record path can block.
	reg := telemetry.NewRegistry()
	iterations := reg.Counter("metrics.iterations")
	iterLat := reg.Histogram("metrics.iteration_latency", workers)

	requests := apram.NewCounter(workers+1,
		apram.WithProbe(rec), apram.WithName("requests"))
	peakRSS := apram.NewPRMW(workers+1, apram.MaxFamily{},
		apram.WithProbe(rec), apram.WithName("peak-rss"))
	lastSample := apram.NewArraySnapshot(workers+1,
		apram.WithProbe(rec), apram.WithName("last-sample"))
	meta := apram.NewObject(apram.DirectorySpec{}, workers+1,
		apram.WithProbe(rec), apram.WithName("meta"))
	flushVote := apram.NewBinaryConsensus(workers+1,
		apram.WithProbe(rec), apram.WithSeed(7), apram.WithName("flush-vote"))

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			meta.Execute(w, apram.Put(fmt.Sprintf("worker%d/zone", w),
				[]string{"us-east", "eu-west"}[w%2]))
			for i := 1; i <= 500; i++ {
				start := time.Now()
				requests.Inc(w, 1)
				peakRSS.Update(w, int64(100+((w*31+i*17)%250)))
				lastSample.Update(w, sample{Seq: i, LatencyMs: float64(5 + (i*w)%20)})
				iterLat.Record(w, uint64(time.Since(start)))
				iterations.Add(1)
			}
			// Workers vote on whether to flush to cold storage (1) or
			// keep buffering (0); whatever is decided, they all do the
			// same thing.
			flushVote.Decide(w, w%2)
		}(w)
	}
	wg.Wait()

	fmt.Printf("requests total: %d (expected %d)\n", requests.Read(admin), workers*500)
	fmt.Printf("peak RSS across workers: %v MB\n", peakRSS.Read(admin))

	view := lastSample.Scan(admin)
	fmt.Println("final consistent cut of last samples:")
	for w := 0; w < workers; w++ {
		s := view[w].(sample)
		fmt.Printf("  worker %d: seq %d, %.0f ms\n", w, s.Seq, s.LatencyMs)
	}

	fmt.Println("service metadata:")
	for _, kv := range meta.Execute(admin, apram.GetAll()).([]string) {
		fmt.Println("  ", kv)
	}

	decision := flushVote.Decide(admin, 0)
	what := map[int]string{0: "keep buffering", 1: "flush"}[decision]
	fmt.Printf("cluster-wide flush decision: %d (%s) — unanimous by construction\n",
		decision, what)

	// The recorder's spans break the registry's cost down per
	// operation kind: how many ops completed, what they cost in
	// register accesses, and the spread between the cheapest and the
	// most contended instance of each.
	fmt.Println("registry cost, from the flight recorder:")
	for _, s := range apram.SummarizeSpans(rec.Spans()) {
		fmt.Printf("  %-13s %5d ops, %7d reads, %6d writes, %4d..%d steps each\n",
			s.Name, s.Count, s.Reads, s.Writes, s.MinSteps, s.MaxSteps)
	}

	// The telemetry registry's view of the same run, in the Prometheus
	// text exposition format — what a scrape of Registry.Serve's
	// /metrics endpoint would return.
	reg.GaugeFunc("metrics.flush_decision", func() uint64 { return uint64(decision) })
	fmt.Println("\ntelemetry registry (Prometheus exposition):")
	if err := telemetry.WritePrometheus(os.Stdout, reg.Snapshot()); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}
