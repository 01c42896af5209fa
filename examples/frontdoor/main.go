// Frontdoor: serving hundreds of clients from four wait-free slots —
// and deciding, by policy, what happens when they are too many.
//
// Every object in this repository is built for a fixed number of
// process slots n, and the universal construction pays its O(n²)
// anchor-array scan per published operation. A real service has far
// more clients than that — so apram/serve puts a frontend on any
// Property 1 object: clients call Do from as many goroutines as they
// like, each slot's worker composes the queued operations into one
// commuting batch, and the whole batch is published with a single
// scan. The shared-memory bill is charged per batch, not per client
// operation.
//
// The first act shows the amortization: 200 clients hammer a 4-slot
// counter under the default blocking admission, and the probe shows a
// few hundred batches carrying thousands of logical operations at a
// mean shared-access cost far below the 2(n²−1) reads a lone
// operation pays.
//
// The second act shows the overload surface: the same counter behind
// a deliberately tiny queue with shed-lowest-priority admission
// (apram.WithAdmission), shared by a high-priority tier and a
// low-priority flood. The front door's typed errors are the API here
// — errors.Is(err, serve.ErrOverload) is a shed (count it, don't
// retry), serve.ErrClosed is a shutdown race, and *serve.OpError
// means the operation itself failed after admission. The sheds land
// on the low tier; the high tier gets through.
//
// Run it:
//
//	go run ./examples/frontdoor
package main

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/apram"
	"repro/apram/obs"
	"repro/apram/serve"
	"repro/apram/workload"
)

// must classifies a Do error against the front door's typed surface;
// anything but a clean response is a bug in this example.
func must(v any, err error) any {
	if err == nil {
		return v
	}
	var oe *serve.OpError
	switch {
	case errors.Is(err, serve.ErrClosed):
		panic("server closed under us: " + err.Error())
	case errors.Is(err, serve.ErrOverload):
		panic("shed under blocking admission: " + err.Error())
	case errors.As(err, &oe):
		panic("operation failed after admission: " + oe.Error())
	default:
		panic(err)
	}
}

func main() {
	const (
		slots   = 4
		clients = 200
		opsEach = 40
	)

	// Act 1: amortization under the default (blocking) admission.
	st := apram.NewStats(slots)
	sv := serve.New(apram.CounterSpec{}, slots,
		apram.WithProbe(st),
		apram.WithBatchCap(32),    // at most 32 logical ops per published batch
		apram.WithQueueDepth(128), // per-slot backpressure bound
	)

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < opsEach; i++ {
				if i%4 == 3 {
					// Reads ride the pure fast path: a batch of reads
					// is itself pure and is never published.
					must(sv.Do(ctx, apram.Read()))
				} else {
					must(sv.Do(ctx, apram.Inc(1)))
				}
			}
		}(c)
	}
	wg.Wait()

	total := must(sv.Do(context.Background(), apram.Read()))
	sv.Close()

	sum := st.Snapshot()
	logical := uint64(clients*opsEach + 1) // every client op plus the final read
	batches := sum.Ops[obs.OpBatch.String()].Count
	fmt.Printf("counter = %v (expected %d)\n", total, clients*opsEach*3/4)
	fmt.Printf("%d logical ops served in %d batches (mean batch %.1f)\n",
		logical, batches, float64(logical)/float64(batches))
	fmt.Printf("%d shared reads + %d shared writes = %.2f accesses per logical op\n",
		sum.Reads, sum.Writes, float64(sum.Reads+sum.Writes)/float64(logical))
	fmt.Printf("(a lone operation on a %d-slot object pays %d reads + %d writes)\n",
		slots, 2*(slots*slots-1), 2*(slots+1))

	// Act 2: overload by policy. Closed-loop clients can never overload
	// a front door — they politely slow down with it — so this act
	// drives OPEN-loop traffic with apram/workload: a steady
	// high-priority tenant plus a low-priority heavy-tailed flood whose
	// bursts overflow a depth-1 queue on any machine. Under
	// shed-lowest-priority admission a queued flood request is evicted
	// to admit a steady arrival, and a flood arrival finding the queue
	// full of its own class is refused outright with serve.ErrOverload
	// (the engine counts those via errors.Is — a shed open-loop arrival
	// is tallied, never retried).
	ov := serve.New(apram.CounterSpec{}, 2,
		apram.WithQueueDepth(1),
		apram.WithBatchCap(1),
		apram.WithAdmission(apram.ShedLowestPriority()),
	)
	res, err := workload.Run(context.Background(), ov, workload.Config{Seed: 22},
		[]workload.Profile{
			{
				Tenant:   "steady",
				Priority: 1,
				Arrivals: workload.Poisson(150),
				Count:    300,
				Ops:      []workload.OpWeight{{Op: "inc", Weight: 3}, {Op: "read", Weight: 1}},
			},
			{
				Tenant:   "flood",
				Arrivals: workload.ParetoBursts(500, 1.1),
				Count:    1000,
				Ops:      []workload.OpWeight{{Op: "inc", Weight: 1}},
			},
		}, workload.CounterOps())
	if err != nil {
		panic(err)
	}
	ov.Close()

	fmt.Printf("\noverload, shed-lowest-priority over a depth-1 queue (%.1fs open-loop):\n",
		res.Elapsed.Seconds())
	for _, tenant := range []string{"steady", "flood"} {
		tr := res.Tenants[tenant]
		fmt.Printf("  %-6s prio %d: %4d done, %3d shed, p99 %v\n",
			tenant, prioOf(tenant), tr.Done, tr.Shed, tr.P99)
	}
	fmt.Printf("  (every admitted operation still completed wait-free; admission\n")
	fmt.Printf("   trades who gets in, never the progress of those already in)\n")
}

// prioOf labels the act-2 tiers for the report.
func prioOf(tenant string) int {
	if tenant == "steady" {
		return 1
	}
	return 0
}
