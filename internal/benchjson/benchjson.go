// Package benchjson produces the machine-readable per-structure
// benchmark report behind `aprambench -json`: for each native
// wait-free structure, throughput (ops/sec), measured register reads
// and writes per operation (from an attached obs probe), the paper's
// Section 6.2 predictions for comparison, allocation counts, and the
// structural event totals the probes collected.
//
// Two passes per structure keep the numbers honest: a timing pass with
// no probe attached (what users of the uninstrumented objects pay) and
// a counting pass with an obs.Stats attached (what the operations
// actually did to the registers). The report's schema is stable —
// tests pin the field set — so successive runs are comparable.
//
// Since v3 every row carries a backend axis: "native" rows run on
// sync/atomic registers and report nanoseconds; "sim" rows run the
// same algorithm body step-granularly on the simulated register
// substrate and report exact shared-memory steps per operation
// instead — wall-clock time on a serialized substrate is fiction, so
// sim rows omit ns/op entirely.
//
// Since v4 every row also carries a shards axis: the shard-counter
// rows drive a keyed object partitioned across Config.Shards
// independent universal constructions (apram/shard), and their numbers
// are only comparable at equal shard counts.
//
// Since v6 rows carry a workload axis: the serve-open row drives the
// serving layer OPEN-LOOP (apram/workload: Poisson arrivals, Zipf key
// popularity) instead of the closed-loop drive every other row uses,
// and reports offered rate, achieved goodput, shed count, and
// per-tenant p99 alongside the usual columns. An empty workload means
// closed-loop — the pre-v6 reading of every row. Rows are therefore
// keyed by (backend, shards, workload, name); the gate in Compare only
// ever diffs like-keyed pairs.
package benchjson

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/apram"
	"repro/apram/obs"
	"repro/apram/serve"
	"repro/apram/shard"
	"repro/apram/telemetry"
	"repro/apram/workload"
)

// Schema identifies the report format; bump only with a new version
// suffix, never in place. v2 added the complete per-event count map
// (every obs.Event name, zeros included) and the snapshot-recorder
// structure; v3 added the backend axis (BackendNative / BackendSim
// rows, ns/op for native only, steps/op for sim) and the
// deterministic flag that scopes the exact-count gate; v4 added the
// shards axis (the apram/shard rows and the shard count on every row);
// v5 added the optional per-op latency quantiles (p50/p99/p999 ns from
// a telemetry-instrumented pass) on the serving-layer native rows; v6
// added the workload axis (the open-loop serve-open row and the
// offered/goodput/shed/per-tenant-p99 columns; empty workload means
// closed-loop). ReadJSON accepts only the current schema: Compare
// could never gate a run against an older document anyway.
const Schema = "apram-bench/v6"

// The backend axis values of a Result row.
const (
	BackendNative = "native"
	BackendSim    = "sim"
)

// Config selects what to run.
type Config struct {
	// N is the number of process slots per structure (default 8).
	N int
	// Ops is the number of operations per structure (default 2000).
	Ops int
	// Structures filters by name; nil or empty runs all. Unknown
	// names are an error. A name selects its rows on every backend
	// that Backend admits.
	Structures []string
	// Backend filters rows by substrate: BackendNative, BackendSim, or
	// "" for both. Any other value is an error.
	Backend string
	// Shards is the shard count the shard-* rows run with (default 2;
	// 1 degrades them to the unsharded serving layer). Every other row
	// ignores it and reports shards 1.
	Shards int
	// TruncateEvery, when positive, builds the universal-construction
	// rows (uc-counter, uc-gset, serve) with the bounded-memory option
	// (apram.WithTruncateEvery): a checkpoint-and-truncate epoch every
	// TruncateEvery operations. Those rows then report RetainedEntries.
	// Truncation performs no shared accesses, so deterministic sim rows
	// keep their exact step counts either way.
	TruncateEvery int
	// Trace, when non-nil, receives one combined Chrome trace-event
	// JSON document covering every selected structure's counting pass
	// — one Chrome process per structure, one track per slot. The
	// flight recorder rides alongside the counting probe, so the
	// timing pass stays unobserved.
	Trace io.Writer
}

// Result is one structure's measurements. Rows are identified by
// (Backend, Name): the same structure name may appear once per
// substrate.
type Result struct {
	// Name identifies the structure.
	Name string `json:"name"`
	// Backend is the register substrate the row ran on: BackendNative
	// (sync/atomic, real goroutines, nanoseconds are real) or
	// BackendSim (serialized step-granular registers, steps are exact).
	Backend string `json:"backend"`
	// Shards is the shard count the row ran with — above 1 only for the
	// apram/shard rows, whose object is partitioned across that many
	// independent universal constructions. Part of the row key: numbers
	// at different shard counts measure different configurations.
	Shards int `json:"shards"`
	// Workload is the row's load shape (v6): empty for the closed-loop
	// drive every pre-v6 row used, or an open-loop workload label
	// ("open-poisson-zipf" for the serve-open row). Part of the row
	// key: open- and closed-loop numbers measure different things.
	Workload string `json:"workload,omitempty"`
	// OfferedOpsPerSec and GoodputOpsPerSec are the open-loop rows'
	// configured arrival rate and achieved completion rate; ShedOps
	// counts operations the admission policy refused (serve.ErrOverload)
	// and TenantP99Ns holds each tenant's client-observed p99 latency.
	// All zero/absent on closed-loop rows.
	OfferedOpsPerSec float64           `json:"offered_ops_per_sec,omitempty"`
	GoodputOpsPerSec float64           `json:"goodput_ops_per_sec,omitempty"`
	ShedOps          uint64            `json:"shed_ops,omitempty"`
	TenantP99Ns      map[string]uint64 `json:"tenant_p99_ns,omitempty"`
	// Deterministic marks rows whose register counts must reproduce
	// exactly run to run; Compare's exact-count gate applies only to
	// them. Concurrently-driven rows are not deterministic — the Go
	// scheduler chooses the interleaving — and are gated on ns/op only.
	Deterministic bool `json:"deterministic"`
	// N is the number of process slots it was built with.
	N int `json:"n_slots"`
	// Ops is the number of operations measured.
	Ops int `json:"ops"`
	// NsPerOp and OpsPerSec are from the probe-free timing pass.
	// Native rows only: a sim row's serialized substrate makes
	// wall-clock meaningless, so both fields are omitted there.
	NsPerOp   float64 `json:"ns_per_op,omitempty"`
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`
	// StepsPerOp is the exact shared-memory accesses (reads+writes)
	// per operation. Sim rows only — it is the substrate's own serial
	// step count, the paper's cost measure.
	StepsPerOp float64 `json:"steps_per_op,omitempty"`
	// AllocsPerOp is heap allocations per op in the timing pass
	// (native rows only).
	AllocsPerOp float64 `json:"allocs_per_op"`
	// ReadsPerOp and WritesPerOp are measured register accesses per
	// op from the counting pass.
	ReadsPerOp  float64 `json:"reads_per_op"`
	WritesPerOp float64 `json:"writes_per_op"`
	// PaperReadsPerOp and PaperWritesPerOp are the Section 6.2
	// predictions (0 when the paper gives no closed form).
	PaperReadsPerOp  float64 `json:"paper_reads_per_op,omitempty"`
	PaperWritesPerOp float64 `json:"paper_writes_per_op,omitempty"`
	// P50Ns, P99Ns and P999Ns are per-operation latency quantiles in
	// nanoseconds from a separate telemetry-instrumented pass (v5).
	// Present only on native rows driven through the serving layer —
	// the only rows whose per-op latency the telemetry registry
	// measures; for the sharded rows they report the slowest shard's
	// tail. The probe-free timing pass behind ns/op stays untouched.
	P50Ns  uint64 `json:"p50_ns,omitempty"`
	P99Ns  uint64 `json:"p99_ns,omitempty"`
	P999Ns uint64 `json:"p999_ns,omitempty"`
	// RetainedEntries is the final live entry-graph size of the
	// counting pass's object (Object.Retained). Set only on the
	// universal-construction rows run with Config.TruncateEvery
	// (aprambench -retain): it is the bound the checkpoint-and-truncate
	// protocol maintains, so a growing value across reports is a leak
	// even when ns/op looks fine.
	RetainedEntries uint64 `json:"retained_entries,omitempty"`
	// Events are the structural event totals from the counting pass —
	// since v2 the map is complete: every obs.Event name appears, with
	// an explicit zero when the structure never emitted it, so two
	// reports always have comparable key sets.
	Events map[string]uint64 `json:"events"`
	// OpStats breaks the counting pass down by operation kind.
	OpStats map[string]obs.OpSummary `json:"op_stats,omitempty"`
}

// Report is the full document written by aprambench -json.
type Report struct {
	// Schema is always the package Schema constant.
	Schema string `json:"schema"`
	// GoVersion records the toolchain (runtime.Version()).
	GoVersion string `json:"go_version"`
	// NSlots, OpsPerStructure and Shards echo the configuration.
	NSlots          int `json:"n_slots"`
	OpsPerStructure int `json:"ops_per_structure"`
	Shards          int `json:"shards"`
	// Structures holds one Result per structure, in run order.
	Structures []Result `json:"structures"`
}

// driver runs ops operations against a structure built for n slots
// with the given probe (nil on the timing pass) and returns the time
// spent inside operations — construction is excluded.
type driver func(n, ops int, probe obs.Probe) time.Duration

type structure struct {
	name          string
	backend       string              // BackendNative or BackendSim
	shards        int                 // 0 = unsharded (reported as 1)
	workload      string              // "" = closed-loop; open-loop rows carry a label (v6)
	slotFactor    int                 // counting-probe slots = slotFactor*n; 0 = 1 (shard rows span shards*n slots)
	deterministic bool                // exact register counts reproduce run to run
	paperReads    func(n int) float64 // per op; nil = no closed form
	paperWrites   func(n int) float64
	run           driver
	// lat, when set on a native row, runs one extra pass with a
	// telemetry registry attached and returns the measured op-latency
	// snapshot (the v5 quantile columns). A separate pass keeps the
	// probe-free timing pass — and its ns/op — exactly what it always
	// measured.
	lat func(n, ops int) telemetry.HistSnapshot
	// post, when set, fills the row's workload columns after both
	// passes (the v6 offered/goodput/shed/per-tenant fields).
	post func(*Result)
}

// opLatency pulls the op-latency histogram with the largest p99 out of
// a registry snapshot: for the unsharded serving row there is exactly
// one; for the sharded rows this is the slowest shard's tail, an upper
// bound on the merged distribution's.
func opLatency(reg *telemetry.Registry) telemetry.HistSnapshot {
	var worst telemetry.HistSnapshot
	for _, h := range reg.Snapshot().Hists {
		if strings.HasSuffix(h.Name, ".op_latency") && (worst.Count == 0 || h.P99 > worst.P99) {
			worst = h.HistSnapshot
		}
	}
	return worst
}

// options builds the constructor options for a pass.
func options(probe obs.Probe) []apram.Option {
	if probe == nil {
		return nil
	}
	return []apram.Option{apram.WithProbe(probe)}
}

// scanReads and scanWrites are the Section 6.2 per-Scan costs.
func scanReads(n int) float64  { return float64(n*n - 1) }
func scanWrites(n int) float64 { return float64(n + 1) }

// benchBatch is the object-batched driver's batch size.
const benchBatch = 20

// gsetElems is the fixed element universe the uc-gset drivers cycle
// through, shared between backends so both run the same workload.
var gsetElems = func() []string {
	out := make([]string, 64)
	for i := range out {
		out[i] = fmt.Sprintf("e%d", i)
	}
	return out
}()

// driveConcurrent splits ops operations across k worker goroutines
// (the division remainder lands on worker 0) and returns the
// wall-clock time of the whole concurrent phase — the native-backend
// rows' timing discipline, where contention is part of what is being
// measured.
func driveConcurrent(k, ops int, do func(worker, i int)) time.Duration {
	per := ops / k
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < k; w++ {
		m := per
		if w == 0 {
			m = ops - per*(k-1)
		}
		wg.Add(1)
		go func(w, m int) {
			defer wg.Done()
			for i := 0; i < m; i++ {
				do(w, i)
			}
		}(w, m)
	}
	wg.Wait()
	return time.Since(start)
}

// ucOptions builds constructor options for the universal-construction
// rows: the probe plus, when the report runs with -retain, the
// bounded-memory truncation cadence.
func ucOptions(probe obs.Probe, truncEvery int) []apram.Option {
	o := options(probe)
	if truncEvery > 0 {
		o = append(o, apram.WithTruncateEvery(truncEvery))
	}
	return o
}

// shardKeys is the fixed key universe the shard-counter drivers cycle
// through; 64 keys provably spread across every shard count the rows
// run at.
var shardKeys = func() []string {
	out := make([]string, 64)
	for i := range out {
		out[i] = fmt.Sprintf("k%d", i)
	}
	return out
}()

func structures(truncEvery, shards int) []structure {
	// openLoop captures the serve-open row's timing-pass workload result
	// for its post hook, and counted (set by track) the universal object
	// a row's counting pass built, whose final Retained() becomes the
	// row's retained_entries under -retain. Rows run sequentially, so
	// one slot each suffices.
	var openLoop *workload.Result
	var counted *apram.Object
	track := func(u *apram.Object, probe obs.Probe) *apram.Object {
		if probe != nil {
			counted = u
		}
		return u
	}
	rows := []structure{
		{
			// One Scan per op: the Figure 5 optimized loop.
			name:        "snapshot",
			paperReads:  scanReads,
			paperWrites: scanWrites,
			run: func(n, ops int, probe obs.Probe) time.Duration {
				s := apram.NewSnapshot(n, apram.MaxInt{}, options(probe)...)
				start := time.Now()
				for i := 0; i < ops; i++ {
					s.Scan(i%n, int64(i))
				}
				return time.Since(start)
			},
		},
		{
			// One Update (= one Scan) per op on the tagged-vector array.
			name:        "array-snapshot",
			paperReads:  scanReads,
			paperWrites: scanWrites,
			run: func(n, ops int, probe obs.Probe) time.Duration {
				a := apram.NewArraySnapshot(n, options(probe)...)
				start := time.Now()
				for i := 0; i < ops; i++ {
					a.Update(i%n, i)
				}
				return time.Since(start)
			},
		},
		{
			// One Inc per op: collect + publish = two Scans.
			name:        "counter",
			paperReads:  func(n int) float64 { return 2 * scanReads(n) },
			paperWrites: func(n int) float64 { return 2 * scanWrites(n) },
			run: func(n, ops int, probe obs.Probe) time.Duration {
				c := apram.NewCounter(n, options(probe)...)
				start := time.Now()
				for i := 0; i < ops; i++ {
					c.Inc(i%n, 1)
				}
				return time.Since(start)
			},
		},
		{
			// One Merge (= one Scan over MapMax) per op.
			name:        "clock",
			paperReads:  scanReads,
			paperWrites: scanWrites,
			run: func(n, ops int, probe obs.Probe) time.Duration {
				c := apram.NewClock(n, options(probe)...)
				keys := make([]string, n)
				for p := 0; p < n; p++ {
					keys[p] = fmt.Sprintf("c%d", p)
				}
				start := time.Now()
				for i := 0; i < ops; i++ {
					p := i % n
					c.Merge(p, apram.IntMap{keys[p]: int64(i)})
				}
				return time.Since(start)
			},
		},
		{
			// One commuting Update (= one Scan) per op.
			name:        "prmw",
			paperReads:  scanReads,
			paperWrites: scanWrites,
			run: func(n, ops int, probe obs.Probe) time.Duration {
				o := apram.NewPRMW(n, apram.AddFamily{}, options(probe)...)
				start := time.Now()
				for i := 0; i < ops; i++ {
					o.Update(i%n, int64(1))
				}
				return time.Since(start)
			},
		},
		{
			// One universal-construction Execute per op: scan + publish
			// = two Scans, plus the (register-free) incremental
			// linearization, whose per-op cost tracks the entries new
			// since the process's previous scan rather than the history
			// length — so one object carries the whole run.
			name:        "object",
			paperReads:  func(n int) float64 { return 2 * scanReads(n) },
			paperWrites: func(n int) float64 { return 2 * scanWrites(n) },
			run: func(n, ops int, probe obs.Probe) time.Duration {
				u := apram.NewObject(apram.CounterSpec{}, n, options(probe)...)
				start := time.Now()
				for i := 0; i < ops; i++ {
					u.Execute(i%n, apram.Inc(1))
				}
				return time.Since(start)
			},
		},
		{
			// The universal construction with logical operations composed
			// into commuting batches before publication (BatchSpec /
			// BatchInv — exactly what an apram/serve slot worker does).
			// Ops counts LOGICAL operations; each batch of up to
			// benchBatch of them costs the same two Scans a single
			// Execute does, so reads/op ≈ 2(n²−1)/benchBatch — the
			// amortization experiment E17 measures under live load. No
			// closed-form columns: the last batch may be short when ops
			// is not a multiple of benchBatch.
			name: "object-batched",
			run: func(n, ops int, probe obs.Probe) time.Duration {
				u := apram.NewObject(apram.BatchSpec(apram.CounterSpec{}), n, options(probe)...)
				var elapsed time.Duration
				for done, b := 0, 0; done < ops; b++ {
					k := benchBatch
					if ops-done < k {
						k = ops - done
					}
					invs := make([]apram.Inv, k)
					for i := range invs {
						invs[i] = apram.Inc(1)
					}
					batch := apram.BatchInv(invs...)
					start := time.Now()
					u.Execute(b%n, batch)
					elapsed += time.Since(start)
					done += k
				}
				return elapsed
			},
		},
		{
			// The snapshot driver again, but with a flight recorder
			// attached in every pass — including the timed one. Gating
			// this row's ns/op against the baseline bounds the recorder's
			// hot-path overhead relative to the bare "snapshot" row.
			name:        "snapshot-recorder",
			paperReads:  scanReads,
			paperWrites: scanWrites,
			run: func(n, ops int, probe obs.Probe) time.Duration {
				rec := obs.NewRecorder(n)
				p := obs.Probe(rec)
				if probe != nil {
					p = obs.Multi(probe, rec)
				}
				s := apram.NewSnapshot(n, apram.MaxInt{}, apram.WithProbe(p))
				start := time.Now()
				for i := 0; i < ops; i++ {
					s.Scan(i%n, int64(i))
				}
				return time.Since(start)
			},
		},
		{
			// The universal construction's machine body on real hardware:
			// one goroutine per slot, all slots contending on the native
			// atomics. Interleavings are the Go scheduler's choice, so
			// register counts vary run to run (linearizer rebuilds, view
			// growth) and the row is gated on ns/op only.
			name:    "uc-counter",
			backend: BackendNative,
			run: func(n, ops int, probe obs.Probe) time.Duration {
				u := track(apram.NewObject(apram.CounterSpec{}, n, ucOptions(probe, truncEvery)...), probe)
				return driveConcurrent(n, ops, func(p, i int) {
					u.Execute(p, apram.Inc(1))
				})
			},
		},
		{
			// The identical Figure 4 machine body on the simulated
			// substrate (apram.WithBackend(Simulated)): every shared
			// access serialized and counted, steps/op exact — the model
			// side of experiment E18's comparison. Sequential round-robin
			// drive keeps the count deterministic.
			name:          "uc-counter",
			backend:       BackendSim,
			deterministic: true,
			paperReads:    func(n int) float64 { return 2 * scanReads(n) },
			paperWrites:   func(n int) float64 { return 2 * scanWrites(n) },
			run: func(n, ops int, probe obs.Probe) time.Duration {
				u := track(apram.NewObject(apram.CounterSpec{}, n,
					append(ucOptions(probe, truncEvery), apram.WithBackend(apram.Simulated(nil)))...), probe)
				for i := 0; i < ops; i++ {
					u.Execute(i%n, apram.Inc(1))
				}
				return 0
			},
		},
		{
			// The grow-set on native atomics, concurrent drive as above.
			// A second spec exercises a different response computation
			// (set union vs integer sum) through the same machine body.
			name:    "uc-gset",
			backend: BackendNative,
			run: func(n, ops int, probe obs.Probe) time.Duration {
				u := track(apram.NewObject(apram.GSetSpec{}, n, ucOptions(probe, truncEvery)...), probe)
				return driveConcurrent(n, ops, func(p, i int) {
					u.Execute(p, apram.Add(gsetElems[i%len(gsetElems)]))
				})
			},
		},
		{
			// The grow-set on the simulated substrate.
			name:          "uc-gset",
			backend:       BackendSim,
			deterministic: true,
			paperReads:    func(n int) float64 { return 2 * scanReads(n) },
			paperWrites:   func(n int) float64 { return 2 * scanWrites(n) },
			run: func(n, ops int, probe obs.Probe) time.Duration {
				u := track(apram.NewObject(apram.GSetSpec{}, n,
					append(ucOptions(probe, truncEvery), apram.WithBackend(apram.Simulated(nil)))...), probe)
				for i := 0; i < ops; i++ {
					u.Execute(i%n, apram.Add(gsetElems[i%len(gsetElems)]))
				}
				return 0
			},
		},
		{
			// The full serving layer on native atomics: a live server,
			// 2n client goroutines, slot workers composing commuting
			// batches. Ops counts logical client operations; batching
			// makes both the wall-clock and the per-op register counts
			// load-dependent, so the row is gated on ns/op only.
			name:    "serve",
			backend: BackendNative,
			run: func(n, ops int, probe obs.Probe) time.Duration {
				sv := serve.New(apram.CounterSpec{}, n, ucOptions(probe, truncEvery)...)
				defer sv.Close()
				track(sv.Object(), probe)
				return driveConcurrent(2*n, ops, func(c, i int) {
					sv.Do(context.Background(), apram.Inc(1))
				})
			},
			lat: func(n, ops int) telemetry.HistSnapshot {
				reg := telemetry.NewRegistry()
				sv := serve.New(apram.CounterSpec{}, n,
					append(ucOptions(nil, truncEvery), apram.WithTelemetry(reg))...)
				defer sv.Close()
				driveConcurrent(2*n, ops, func(c, i int) {
					sv.Do(context.Background(), apram.Inc(1))
				})
				return opLatency(reg)
			},
		},
		{
			// The same serving layer with its object on the simulated
			// substrate — clients and slot workers are still real
			// goroutines; only the registers under the universal object
			// change. Batch composition depends on arrival timing, so
			// steps/op is a measurement, not a constant.
			name:    "serve",
			backend: BackendSim,
			run: func(n, ops int, probe obs.Probe) time.Duration {
				sv := serve.New(apram.CounterSpec{}, n,
					append(ucOptions(probe, truncEvery), apram.WithBackend(apram.Simulated(nil)))...)
				defer sv.Close()
				track(sv.Object(), probe)
				for done := 0; done < ops; done++ {
					sv.Do(context.Background(), apram.Inc(1))
				}
				return 0
			},
		},
		{
			// The serving layer driven open-loop (v6): a Poisson arrival
			// process with Zipf-skewed key popularity pushed through
			// apram/workload instead of a closed client pool, so offered
			// load is the generator's choice, not the server's. ns/op is
			// wall clock per generated arrival; the workload columns carry
			// offered rate, achieved goodput, shed count, and the tenant's
			// client-observed p99 (admission wait included). Batching and
			// pacing make everything load-dependent, so the row is gated
			// on ns/op only.
			name:     "serve-open",
			backend:  BackendNative,
			workload: "open-poisson-zipf",
			run: func(n, ops int, probe obs.Probe) time.Duration {
				sv := serve.New(apram.KCounterSpec{}, n, ucOptions(probe, truncEvery)...)
				defer sv.Close()
				track(sv.Object(), probe)
				profiles := []workload.Profile{{
					Tenant:   "load",
					Arrivals: workload.Poisson(20000),
					Count:    ops,
					Ops:      []workload.OpWeight{{Op: "vinc", Weight: 9}, {Op: "vread", Weight: 1}},
					Keys:     16,
					ZipfS:    1.5,
				}}
				start := time.Now()
				res, err := workload.Run(context.Background(), sv, workload.Config{Seed: 1}, profiles, workload.KCounterOps())
				if err != nil {
					panic(err) // static profile: any error is a driver bug
				}
				if probe == nil {
					openLoop = res
				}
				return time.Since(start)
			},
			post: func(r *Result) {
				if openLoop == nil {
					return
				}
				r.OfferedOpsPerSec = openLoop.Offered
				r.GoodputOpsPerSec = openLoop.Goodput
				r.ShedOps = uint64(openLoop.Shed)
				r.TenantP99Ns = make(map[string]uint64, len(openLoop.Tenants))
				for name, tr := range openLoop.Tenants {
					r.TenantP99Ns[name] = uint64(tr.P99)
				}
			},
		},
		{
			// The sharded serving layer on native atomics: a keyed counter
			// partitioned across `shards` independent universal
			// constructions, 2n clients each owning one key — the
			// key-disjoint traffic shape whose served throughput the shard
			// layer exists to scale (experiment E20 sweeps the shard axis).
			// Contention and batching make the numbers load-dependent, so
			// the row is gated on ns/op only.
			name:       "shard-counter",
			backend:    BackendNative,
			shards:     shards,
			slotFactor: shards,
			run: func(n, ops int, probe obs.Probe) time.Duration {
				sv := shard.New(apram.KCounterSpec{}, n,
					append(options(probe), apram.WithShards(shards))...)
				defer sv.Close()
				return driveConcurrent(2*n, ops, func(c, i int) {
					sv.Do(context.Background(), apram.VInc(shardKeys[c%len(shardKeys)], 1))
				})
			},
			lat: func(n, ops int) telemetry.HistSnapshot {
				reg := telemetry.NewRegistry()
				sv := shard.New(apram.KCounterSpec{}, n,
					apram.WithShards(shards), apram.WithTelemetry(reg))
				defer sv.Close()
				driveConcurrent(2*n, ops, func(c, i int) {
					sv.Do(context.Background(), apram.VInc(shardKeys[c%len(shardKeys)], 1))
				})
				return opLatency(reg)
			},
		},
		{
			// The shard layer with its objects on the simulated substrate,
			// driven sequentially with the batch cap pinned to one logical
			// operation per publication: every keyed increment costs
			// exactly one scan-and-publish on its own shard — 2(n²−1)
			// reads, 2(n+1) writes — regardless of the shard count. The
			// deterministic exact-count gate on this row is the claim that
			// sharding adds zero per-operation shared-memory overhead to
			// keyed traffic: steps/op is flat in S.
			name:          "shard-counter",
			backend:       BackendSim,
			shards:        shards,
			slotFactor:    shards,
			deterministic: true,
			paperReads:    func(n int) float64 { return 2 * scanReads(n) },
			paperWrites:   func(n int) float64 { return 2 * scanWrites(n) },
			run: func(n, ops int, probe obs.Probe) time.Duration {
				sv := shard.New(apram.KCounterSpec{}, n,
					append(options(probe), apram.WithShards(shards), apram.WithBatchCap(1),
						apram.WithBackend(apram.Simulated(nil)))...)
				defer sv.Close()
				for i := 0; i < ops; i++ {
					sv.Do(context.Background(), apram.VInc(shardKeys[i%len(shardKeys)], 1))
				}
				return 0
			},
		},
		{
			// One Decide per op; a fresh object every n decides (a
			// consensus object is single-shot per slot). Register costs
			// are dominated by the shared-coin random walk, so there is
			// no closed form — the events column carries the coin and
			// round counts instead.
			name: "consensus",
			run: func(n, ops int, probe obs.Probe) time.Duration {
				var elapsed time.Duration
				seed := int64(1)
				for done := 0; done < ops; {
					c := apram.NewBinaryConsensus(n, append(options(probe), apram.WithSeed(seed))...)
					seed++
					start := time.Now()
					for p := 0; p < n && done < ops; p++ {
						c.Decide(p, p%2)
						done++
					}
					elapsed += time.Since(start)
				}
				return elapsed
			},
		},
	}
	// The pre-v3 rows predate the backend axis: they are all
	// sequentially-driven native measurements with exactly reproducible
	// register counts, which the zero values above leave unsaid. Every
	// unsharded row reports shards 1.
	for i := range rows {
		if rows[i].backend == "" {
			rows[i].backend = BackendNative
			rows[i].deterministic = true
		}
		if rows[i].shards == 0 {
			rows[i].shards = 1
		}
		if post := rows[i].post; truncEvery > 0 {
			rows[i].post = func(r *Result) {
				if counted != nil {
					r.RetainedEntries = uint64(counted.Retained())
					counted = nil
				}
				if post != nil {
					post(r)
				}
			}
		}
	}
	return rows
}

// Names lists the available structure names in run order, each once —
// dual-substrate structures (uc-counter, uc-gset, serve) contribute a
// row per backend under a single name.
func Names() []string {
	var out []string
	seen := map[string]bool{}
	for _, s := range structures(0, 2) {
		if !seen[s.name] {
			seen[s.name] = true
			out = append(out, s.name)
		}
	}
	return out
}

// Run executes the configured benchmarks and assembles the report.
func Run(cfg Config) (*Report, error) {
	if cfg.N <= 0 {
		cfg.N = 8
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 2000
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("negative shard count %d", cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = 2
	}
	if cfg.Backend != "" && cfg.Backend != BackendNative && cfg.Backend != BackendSim {
		return nil, fmt.Errorf("unknown backend %q (have %q, %q, or empty for both)",
			cfg.Backend, BackendNative, BackendSim)
	}
	all := structures(cfg.TruncateEvery, cfg.Shards)
	known := map[string]bool{}
	for _, s := range all {
		known[s.name] = true
	}
	want := map[string]bool{}
	for _, name := range cfg.Structures {
		if !known[name] {
			return nil, fmt.Errorf("unknown structure %q (have %v)", name, Names())
		}
		want[name] = true
	}
	var selected []structure
	for _, s := range all {
		if cfg.Backend != "" && s.backend != cfg.Backend {
			continue
		}
		if len(want) > 0 && !want[s.name] {
			continue
		}
		selected = append(selected, s)
	}
	rep := &Report{
		Schema:          Schema,
		GoVersion:       runtime.Version(),
		NSlots:          cfg.N,
		OpsPerStructure: cfg.Ops,
		Shards:          cfg.Shards,
	}
	var procs []obs.ChromeProcess
	for i, s := range selected {
		res, spans := measure(s, cfg.N, cfg.Ops, cfg.Trace != nil)
		rep.Structures = append(rep.Structures, res)
		if cfg.Trace != nil {
			label := s.name
			if s.backend == BackendSim {
				label += " (sim)"
			}
			procs = append(procs, obs.ChromeProcess{Pid: i, Name: label, Spans: spans})
		}
	}
	if cfg.Trace != nil {
		if err := obs.WriteChromeTrace(cfg.Trace, procs...); err != nil {
			return nil, fmt.Errorf("benchjson: trace: %w", err)
		}
	}
	return rep, nil
}

func measure(s structure, n, ops int, trace bool) (Result, []obs.Span) {
	// Timing pass: no probe, the path users of uninstrumented objects
	// run. Mallocs delta brackets only this pass. Sim rows skip it
	// entirely — their substrate serializes every access, so the only
	// honest numbers are step counts, which the counting pass provides.
	var elapsed time.Duration
	var before, after runtime.MemStats
	if s.backend != BackendSim {
		runtime.GC()
		runtime.ReadMemStats(&before)
		elapsed = s.run(n, ops, nil)
		runtime.ReadMemStats(&after)
	}

	// Counting pass: probe attached, untimed. Shard rows fan their
	// traffic across shards*n probe slots (obs.Shard gives each shard
	// its own slot range), so the probe is sized to the row's full slot
	// span. With tracing on, a flight recorder rides alongside the
	// stats; its ring is sized so every op's spans survive
	// (overwrite-oldest would silently thin the exported timeline
	// otherwise).
	slots := n
	if s.slotFactor > 1 {
		slots = s.slotFactor * n
	}
	st := obs.NewStats(slots)
	var rec *obs.Recorder
	probe := obs.Probe(st)
	if trace {
		perSlot := 8 * (ops/slots + 1)
		if perSlot < obs.DefaultSpanCapacity {
			perSlot = obs.DefaultSpanCapacity
		}
		rec = obs.NewRecorder(slots, obs.WithSpanCapacity(perSlot))
		probe = obs.Multi(st, rec)
	}
	s.run(n, ops, probe)
	sum := st.Snapshot()

	res := Result{
		Name:          s.name,
		Backend:       s.backend,
		Shards:        s.shards,
		Workload:      s.workload,
		Deterministic: s.deterministic,
		N:             n,
		Ops:           ops,
		ReadsPerOp:    float64(sum.Reads) / float64(ops),
		WritesPerOp:   float64(sum.Writes) / float64(ops),
	}
	if s.backend == BackendSim {
		res.StepsPerOp = float64(sum.Reads+sum.Writes) / float64(ops)
	} else {
		res.NsPerOp = float64(elapsed.Nanoseconds()) / float64(ops)
		res.AllocsPerOp = float64(after.Mallocs-before.Mallocs) / float64(ops)
		if elapsed > 0 {
			res.OpsPerSec = float64(ops) / elapsed.Seconds()
		}
	}
	// Latency pass (v5): a third, separately-constructed run with the
	// telemetry registry attached, so the quantiles measure the served
	// path without perturbing the probe-free timing pass above.
	if s.backend != BackendSim && s.lat != nil {
		if snap := s.lat(n, ops); snap.Count > 0 {
			res.P50Ns, res.P99Ns, res.P999Ns = snap.P50, snap.P99, snap.P999
		}
	}
	if s.paperReads != nil {
		res.PaperReadsPerOp = s.paperReads(n)
	}
	if s.paperWrites != nil {
		res.PaperWritesPerOp = s.paperWrites(n)
	}
	res.Events = make(map[string]uint64, obs.NumEvents)
	for e := obs.Event(0); e < obs.NumEvents; e++ {
		res.Events[e.String()] = st.Events(e)
	}
	if len(sum.Ops) > 0 {
		res.OpStats = sum.Ops
	}
	if s.post != nil {
		s.post(&res)
	}
	var spans []obs.Span
	if rec != nil {
		spans = rec.Spans()
	}
	return res, spans
}

// WriteJSON writes the report, indented, with a stable key order (Go's
// encoding/json already sorts map keys).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Compare gates cur against a committed baseline report. Rows are
// matched by (backend, shards, workload, name) — a native row is never
// compared against a sim row, whose numbers measure a different
// substrate, a sharded row is never compared across shard counts, and
// an open-loop row is never compared against a closed-loop one (an
// empty workload and the literal "closed" both mean closed-loop). For
// every selected row (all of base's when structures is nil; a name
// selects its rows on every backend) it flags
//
//   - a ns/op regression beyond the tolerance factor (e.g. 2 = fail
//     when the current run is more than twice as slow) — rows with
//     timing only, so sim rows are exempt, and so are open-loop rows:
//     their wall clock is set by the configured arrival pacing and the
//     depth of the admission queue, not the server's per-op cost, and
//     under deliberate overload it swings far more than any honest
//     tolerance. The per-op regression signal lives in the closed-loop
//     rows; open-loop rows are still matched for presence. And
//   - any change at all in measured register reads or writes per op
//     for rows both reports mark Deterministic — those drivers are
//     sequential, so the paper-model counts must reproduce exactly.
//     Concurrently-driven rows are exempt: their interleavings are
//     the Go scheduler's choice.
//
// It returns human-readable findings, empty when the gate passes.
// Mismatched configurations (schema, slot count, op count) are
// reported as findings rather than silently compared, since ns/op and
// access counts are only comparable at equal parameters.
func Compare(base, cur *Report, tolerance float64, structures []string) []string {
	var out []string
	if tolerance <= 0 {
		tolerance = 2
	}
	if base.Schema != cur.Schema {
		out = append(out, fmt.Sprintf("schema mismatch: baseline %q vs current %q", base.Schema, cur.Schema))
		return out
	}
	if base.NSlots != cur.NSlots || base.OpsPerStructure != cur.OpsPerStructure {
		out = append(out, fmt.Sprintf("config mismatch: baseline n=%d ops=%d vs current n=%d ops=%d",
			base.NSlots, base.OpsPerStructure, cur.NSlots, cur.OpsPerStructure))
		return out
	}
	shardsOf := func(s Result) int {
		if s.Shards <= 0 {
			return 1 // handcrafted reports: unsharded
		}
		return s.Shards
	}
	key := func(s Result) string {
		k := s.Backend + "/" + s.Name
		if sh := shardsOf(s); sh > 1 {
			k += fmt.Sprintf("@s%d", sh)
		}
		if s.Workload != "" && s.Workload != "closed" {
			k += "@" + s.Workload
		}
		return k
	}
	index := func(r *Report) map[string]Result {
		m := make(map[string]Result, len(r.Structures))
		for _, s := range r.Structures {
			m[key(s)] = s
		}
		return m
	}
	baseBy, curBy := index(base), index(cur)
	var keys []string
	if structures == nil {
		for _, s := range base.Structures {
			keys = append(keys, key(s))
		}
	} else {
		for _, name := range structures {
			found := false
			for _, s := range base.Structures {
				if s.Name == name {
					keys = append(keys, key(s))
					found = true
				}
			}
			if !found {
				out = append(out, fmt.Sprintf("%s: missing from baseline", name))
			}
		}
	}
	for _, k := range keys {
		b := baseBy[k]
		c, ok := curBy[k]
		if !ok {
			out = append(out, fmt.Sprintf("%s: missing from current run", k))
			continue
		}
		openLoop := b.Workload != "" && b.Workload != "closed"
		if !openLoop && b.NsPerOp > 0 && c.NsPerOp > tolerance*b.NsPerOp {
			out = append(out, fmt.Sprintf("%s: ns/op regressed %.0f -> %.0f (%.2fx > %.2fx tolerance)",
				k, b.NsPerOp, c.NsPerOp, c.NsPerOp/b.NsPerOp, tolerance))
		}
		if !b.Deterministic || !c.Deterministic {
			continue
		}
		if c.ReadsPerOp != b.ReadsPerOp {
			out = append(out, fmt.Sprintf("%s: reads/op changed %v -> %v (deterministic count must reproduce)",
				k, b.ReadsPerOp, c.ReadsPerOp))
		}
		if c.WritesPerOp != b.WritesPerOp {
			out = append(out, fmt.Sprintf("%s: writes/op changed %v -> %v (deterministic count must reproduce)",
				k, b.WritesPerOp, c.WritesPerOp))
		}
	}
	return out
}

// ReadJSON parses a report written by WriteJSON and validates its
// schema tag, which must be the current Schema.
func ReadJSON(r io.Reader) (*Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, fmt.Errorf("benchjson: parse: %w", err)
	}
	if rep.Schema != Schema {
		return nil, fmt.Errorf("benchjson: schema %q, want %q", rep.Schema, Schema)
	}
	return &rep, nil
}

// SortedEventNames is a helper for table renderers: the union of event
// names across structures, sorted.
func (r *Report) SortedEventNames() []string {
	set := map[string]bool{}
	for _, s := range r.Structures {
		for name := range s.Events {
			set[name] = true
		}
	}
	out := make([]string, 0, len(set))
	for name := range set {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
