package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/apram"
	"repro/apram/shard"
)

// shardLoad is one measured sharded-serving run: a fixed closed-loop
// client population, each client owning one key, multiplexed through
// shard.New onto S independent universal constructions of n slots each.
type shardLoad struct {
	ops       int
	opsPerSec float64 // wall-clock throughput (hardware-dependent)
}

// runShardLoad drives clients goroutines, each submitting opsPerClient
// increments to its own key, against a sharded keyed counter. The
// traffic is key-disjoint by construction — no two clients ever
// contend on routing state — which is exactly the workload the shard
// layer exists to scale: every shard serves its share of the keys
// through its own anchor array, so adding shards adds serving
// capacity instead of deepening one array's slot queues. If ctx ends
// first, the clients stop and runShardLoad returns ctx's error.
func runShardLoad(ctx context.Context, n, shards, clients, opsPerClient int) (shardLoad, error) {
	sv := shard.New(apram.KCounterSpec{}, n,
		apram.WithShards(shards), apram.WithBatchCap(8))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			key := fmt.Sprintf("c%d", c)
			for r := 0; r < opsPerClient; r++ {
				if _, err := sv.Do(ctx, apram.VInc(key, 1)); err != nil {
					if ctx.Err() != nil {
						return
					}
					panic("experiments: shard load failed: " + err.Error())
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	sv.Close()
	if err := ctx.Err(); err != nil {
		return shardLoad{}, err
	}
	ops := clients * opsPerClient
	return shardLoad{ops: ops, opsPerSec: float64(ops) / elapsed.Seconds()}, nil
}

// simShardSteps runs the same keyed drive sequentially on the
// simulated substrate with the batch cap pinned to one logical
// operation per publication, and returns the exact shared reads and
// writes per operation. One keyed increment costs one scan-and-publish
// on the shard that owns the key and touches nothing anywhere else, so
// the counts must not depend on S.
func simShardSteps(n, shards, clients, ops int) (reads, writes float64) {
	st := apram.NewStats(shards * n)
	sv := shard.New(apram.KCounterSpec{}, n,
		apram.WithShards(shards), apram.WithProbe(st), apram.WithBatchCap(1),
		apram.WithBackend(apram.Simulated(nil)))
	defer sv.Close()
	ctx := context.Background()
	for i := 0; i < ops; i++ {
		if _, err := sv.Do(ctx, apram.VInc(fmt.Sprintf("c%d", i%clients), 1)); err != nil {
			panic("experiments: sim shard drive failed: " + err.Error())
		}
	}
	sum := st.Snapshot()
	return float64(sum.Reads) / float64(ops), float64(sum.Writes) / float64(ops)
}

// E20Sharding measures the sharded universal construction's scaling
// claim from both sides. The native arm holds the client population
// and per-shard slot count fixed and sweeps the shard count over
// key-disjoint traffic: served throughput should grow with S because
// independent anchor arrays serve independent key ranges (on a
// single-CPU host the shards time-slice one core, so the speedup
// column flattens toward 1x — the sim arm is the machine-independent
// statement). The sim arm runs the identical keyed drive on the
// serialized substrate and reports exact shared accesses per
// operation, which must be flat in S: partitioning adds zero
// shared-memory overhead to keyed operations, so the throughput win
// is pure parallelism, not an amortization trade.
func E20Sharding() Table {
	t, _ := e20Sharding(context.Background())
	return t
}

// e20Sharding is E20Sharding under ctx: if ctx ends during a native
// arm, it returns the rows measured so far and ctx's error.
func e20Sharding(ctx context.Context) (Table, error) {
	const (
		n            = 4
		clients      = 16
		opsPerClient = 250
		simOps       = 512
	)
	t := Table{
		ID:    "E20",
		Title: "Sharded serving: throughput vs shard count, flat per-op cost",
		PaperClaim: "the universal construction serializes every operation through one " +
			"n-slot anchor array (Section 5.4); a keyed Property-1 object partitions " +
			"across independent instances, so key-disjoint traffic scales with the " +
			"shard count while each operation still costs the single-shard " +
			"2(n²−1) reads and 2(n+1) writes",
		Columns: []string{"shards", "clients", "ops", "ops/sec", "speedup",
			"sim reads/op", "sim writes/op"},
	}
	var base float64
	for _, shards := range []int{1, 2, 4} {
		load, err := runShardLoad(ctx, n, shards, clients, opsPerClient)
		if err != nil {
			return t, err
		}
		if base == 0 {
			base = load.opsPerSec
		}
		reads, writes := simShardSteps(n, shards, clients, simOps)
		t.AddRow(shards, clients, load.ops, load.opsPerSec, load.opsPerSec/base,
			reads, writes)
	}
	t.Notes = append(t.Notes,
		"traffic is key-disjoint: each client owns one key, keys spread across shards",
		"by the deterministic partitioner, so shards never synchronize with each other",
		"ops/sec is wall-clock and machine-dependent; speedup needs as many real cores",
		"as shards (GOMAXPROCS=1 time-slices the shards and flattens the column)",
		"sim reads/op and writes/op are exact serialized-substrate counts at batch cap 1",
		"and sit at the single-shard closed forms 2(n²−1) and 2(n+1) for every S — the",
		"row-to-row flatness IS the zero-overhead claim; cross-shard reads (vsum) pay",
		"extra, which is the documented trade (see DESIGN.md decision 12)")
	return t, nil
}
