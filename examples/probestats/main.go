// Probe-driven observability: measure what your wait-free objects
// actually do to the registers, and publish it over expvar.
//
// The obs layer is itself wait-free-safe: an obs.Stats probe keeps one
// cache-line-separated counter block per process slot, each written
// only by its own process (the same single-writer discipline the
// paper's registers obey), so attaching one cannot introduce the very
// blocking the data structures exist to avoid. Stats counts only what
// the paper's cost model charges; the latency distribution and the
// gauges below live in a telemetry registry. This example:
//
//   - attaches one Stats probe to a counter and a snapshot via the
//     functional-options API (apram.WithProbe);
//   - stacks a sampling Trace hook on the same objects with obs.Multi;
//   - bridges a telemetry.Registry onto expvar with
//     telemetry.PublishExpvar — the registry carries per-worker Inc
//     latencies and live register-traffic gauges derived from the
//     Stats probe, and every read of /debug/vars re-snapshots it;
//   - cross-checks the measured totals against the paper's Section 6.2
//     closed forms (they match exactly, not approximately).
//
// Run it:
//
//	go run ./examples/probestats
package main

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/apram"
	"repro/apram/obs"
	"repro/apram/telemetry"
)

func main() {
	const workers = 8
	const opsEach = 2000

	// One probe for all instrumented objects; slot p is written only by
	// the goroutine driving process p, so there is no contention.
	stats := apram.NewStats(workers)

	// A Trace hook sees every probe record; here it just counts how
	// many fire, to show hooks and Stats composing via obs.Multi.
	var traceRecords atomic.Uint64
	trace := obs.Trace(func(obs.Record) { traceRecords.Add(1) })

	requests := apram.NewCounter(workers,
		apram.WithProbe(obs.Multi(stats, trace)),
		apram.WithName("requests"))
	cut := apram.NewSnapshot(workers, apram.MaxInt{},
		apram.WithProbe(obs.Multi(stats, trace)),
		apram.WithName("progress-cut"))

	// Live metrics through the expvar bridge: every read of
	// /debug/vars re-snapshots the registry, and the registry's gauges
	// pull from the Stats probe's atomic counters — scraping never
	// blocks a worker.
	reg := telemetry.NewRegistry()
	incLat := reg.Histogram("probestats.inc_latency", workers)
	reg.GaugeFunc("probestats.reads", func() uint64 { return stats.Snapshot().Reads })
	reg.GaugeFunc("probestats.writes", func() uint64 { return stats.Snapshot().Writes })
	reg.GaugeFunc("probestats.trace_records", traceRecords.Load)
	telemetry.PublishExpvar("apram", reg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err == nil {
		defer ln.Close()
		go http.Serve(ln, nil)
		fmt.Printf("expvar: curl http://%s/debug/vars | jq .apram\n\n", ln.Addr())
	}

	var wg sync.WaitGroup
	for p := 0; p < workers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 1; i <= opsEach; i++ {
				start := time.Now()
				requests.Inc(p, 1)
				incLat.Record(p, uint64(time.Since(start)))
				if i%100 == 0 {
					cut.Scan(p, int64(i)) // a consistent progress cut
				}
			}
		}(p)
	}
	wg.Wait()

	sum := stats.Snapshot()
	fmt.Printf("objects: %s, %s\n", apram.NameOf(requests), apram.NameOf(cut))
	fmt.Printf("register traffic: %d reads, %d writes (%d trace records)\n",
		sum.Reads, sum.Writes, traceRecords.Load())
	for _, h := range reg.Snapshot().Hists {
		fmt.Printf("%s: n=%d p50=%v p99=%v max=%v\n", h.Name, h.Count,
			time.Duration(h.P50), time.Duration(h.P99), time.Duration(h.Max))
	}
	for _, name := range []string{"counter-add", "scan"} {
		op := sum.Ops[name]
		fmt.Printf("  %-12s %6d ops, %5.0f register accesses each\n",
			name, op.Count, op.MeanSteps)
	}

	// Section 6.2: a Scan is n+1 writes and n²−1 reads; a counter Inc
	// is two Scans. The probe measures the real atomics, so this is a
	// check of the implementation, not arithmetic.
	n := uint64(workers)
	incs := sum.Ops["counter-add"].Count
	scans := sum.Ops["scan"].Count
	wantWrites := 2*incs*(n+1) + scans*(n+1)
	wantReads := 2*incs*(n*n-1) + scans*(n*n-1)
	fmt.Printf("paper predicts %d reads, %d writes — measured %s\n",
		wantReads, wantWrites,
		map[bool]string{true: "exact match", false: "MISMATCH"}[sum.Reads == wantReads && sum.Writes == wantWrites])
}
