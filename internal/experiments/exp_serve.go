package experiments

import (
	"context"
	"sync"
	"time"

	"repro/apram"
	"repro/apram/obs"
	"repro/apram/serve"
)

// serveLoad is one measured serving-layer run: a closed-loop client
// population multiplexed onto an n-slot counter through apram/serve.
type serveLoad struct {
	logicalOps int
	meanBatch  float64
	accessesOp float64 // shared reads+writes per logical operation
	opsPerSec  float64 // wall-clock throughput (hardware-dependent)
}

// runServeLoad drives clients closed-loop client goroutines, each
// submitting opsPerClient operations (three increments to one read,
// so the pure-elide path is exercised), against a serve.Server over an
// n-slot counter with the given batch cap (0 = default). Shared
// accesses and the batch count (one OpBatch per serve turn) come from
// an attached Stats probe; every register access of the underlying
// universal object is counted, so accesses per logical operation is
// exact, not sampled.
func runServeLoad(n, clients, batchCap, opsPerClient int) serveLoad {
	st := apram.NewStats(n)
	opts := []apram.Option{apram.WithProbe(st)}
	if batchCap > 0 {
		opts = append(opts, apram.WithBatchCap(batchCap))
	}
	sv := serve.New(apram.CounterSpec{}, n, opts...)

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for r := 0; r < opsPerClient; r++ {
				var err error
				if r%4 == 1 {
					_, err = sv.Do(ctx, apram.Read())
				} else {
					_, err = sv.Do(ctx, apram.Inc(1))
				}
				if err != nil {
					panic("experiments: serve load failed: " + err.Error())
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	sv.Close()

	sum := st.Snapshot()
	ops := clients * opsPerClient
	return serveLoad{
		logicalOps: ops,
		meanBatch:  float64(ops) / float64(sum.Ops[obs.OpBatch.String()].Count),
		accessesOp: float64(sum.Reads+sum.Writes) / float64(ops),
		opsPerSec:  float64(ops) / elapsed.Seconds(),
	}
}

// E17Serve measures the serving layer's amortization claim: the
// universal construction pays 2(n²−1) reads and 2(n+1) writes per
// *published* operation (Section 5.4), so multiplexing many clients
// onto the n slots and batching each slot's pending operations into
// one published entry divides the shared-access bill by the batch
// size. Offered concurrency sweeps {n, 4n, 32n, 256n}; past n the
// queues hold more than one operation per slot turn, batches grow,
// and shared accesses per logical operation fall. A batch-cap sweep
// at fixed concurrency shows the cap is the limiting factor.
func E17Serve() Table {
	const n = 4
	t := Table{
		ID:    "E17",
		Title: "Slot-multiplexed serving: batching amortizes the O(n²) scan",
		PaperClaim: "the universal construction costs O(n²) shared accesses per published " +
			"operation (Section 5.4); composing commuting operations into one entry " +
			"amortizes that cost across the batch (Property 1 preserved, Defs. 10/11)",
		Columns: []string{"clients", "batch cap", "logical ops", "mean batch",
			"accesses/op", "ops/sec"},
	}
	// Offered concurrency sweep at the default cap: total logical ops
	// held near constant so histories stay comparable.
	for _, mult := range []int{1, 4, 32, 256} {
		clients := mult * n
		per := 1024 / clients
		if per < 1 {
			per = 1
		}
		r := runServeLoad(n, clients, 0, per)
		t.AddRow(clients, serve.DefaultBatchCap, r.logicalOps, r.meanBatch,
			r.accessesOp, r.opsPerSec)
	}
	// Batch-cap sweep at fixed 32n concurrency.
	for _, cap := range []int{1, 4, 16, 64} {
		r := runServeLoad(n, 32*n, cap, 4)
		t.AddRow(32*n, cap, r.logicalOps, r.meanBatch, r.accessesOp, r.opsPerSec)
	}
	t.Notes = append(t.Notes,
		"accesses/op is exact (probe counts every register access); ops/sec is wall-clock",
		"rows 1-4: accesses per logical op falls strictly as concurrency grows past n —",
		"the scan bill is per batch, and batches grow with queue occupancy",
		"rows 5-8: at fixed concurrency the batch cap bounds the amortization (cap 1",
		"recovers the unbatched per-operation cost; pure read batches still elide publication)")
	return t
}
