package serve_test

import (
	"context"
	"sync"
	"testing"

	"repro/apram"
	"repro/apram/serve"
	"repro/apram/telemetry"
)

// TestStress256Clients: 256 client goroutines multiplexed onto n = 4
// slots, mixed pure and mutating operations, with value conservation
// checked at the end — the satellite -race workload. Each client's
// increments sum to a known amount and every dec is matched by an
// inc, so the final counter value must equal the grand total.
func TestStress256Clients(t *testing.T) {
	const (
		n       = 4
		clients = 256
		rounds  = 24
	)
	st := apram.NewStats(n)
	reg := telemetry.NewRegistry()
	sv := serve.New(apram.CounterSpec{}, n, apram.WithProbe(st), apram.WithQueueDepth(64),
		apram.WithTelemetry(reg), apram.WithName("stress"))

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for r := 0; r < rounds; r++ {
				var err error
				switch r % 4 {
				case 0:
					_, err = sv.Do(ctx, apram.Inc(int64(c%5+1)))
				case 1:
					_, err = sv.Do(ctx, apram.Read())
				case 2:
					_, err = sv.Do(ctx, apram.Dec(2))
				default:
					_, err = sv.Do(ctx, apram.Inc(2))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Value conservation: every client ran rounds/4 full cycles of
	// {inc(c%5+1), read, dec(2), inc(2)}, netting (c%5+1) per cycle.
	var want int64
	for c := 0; c < clients; c++ {
		want += int64(rounds/4) * int64(c%5+1)
	}
	got, err := sv.Do(context.Background(), apram.Read())
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("final counter = %v, want %d (lost or duplicated operations)", got, want)
	}
	sv.Close()

	sum := st.Snapshot()
	bs := reg.Histogram("serve.stress.batch_size", n).Snapshot()
	if bs.Sum != clients*rounds+1 {
		t.Fatalf("batched ops = %d, want %d (every logical op exactly once)",
			bs.Sum, clients*rounds+1)
	}
	mean := float64(bs.Sum) / float64(bs.Count)
	if mean <= 1 {
		t.Logf("warning: mean batch %.2f — no composition observed under load", mean)
	}
	t.Logf("%d logical ops in %d batches (mean %.1f), %d reads, %d writes",
		bs.Sum, bs.Count, mean, sum.Reads, sum.Writes)
}
