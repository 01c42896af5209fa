// Package shard partitions a keyed Property 1 object across S
// independent universal constructions behind one serve-style front
// door, scaling served throughput past a single anchor array.
//
// Every universal object in this repository funnels all writers
// through one n-slot anchor array, so one object's throughput tops out
// at what n slot workers can push through O(n²)-cost scans of shared
// cells — adding clients past that point only deepens the queues. For
// specs whose operations name a key (spec.Partitionable: a counter
// vector, a grow-set keyed by element, a directory keyed by entry),
// traffic on distinct keys commutes, so it needs no common anchor at
// all: a Server runs S complete serve.Server stacks (each with its own
// anchor array, batching, truncation, and backend) and routes each
// keyed operation to the shard that owns its key via the deterministic
// spec.PartitionIndex. Key-disjoint traffic then scales with S — the
// shards share no registers — which experiment E20 measures.
//
// # Cross-shard operations
//
// Operations without a key (vsum, members, getall, vzero, clear) span
// every shard; a sequence of independent per-shard calls is NOT
// linearizable (shard A can answer before a concurrent op lands while
// shard B answers after a later one — a global state no single instant
// exhibits). The Server composes them soundly with two mechanisms:
//
// Optimistic snapshot (native backend, pure operations): collect every
// shard's anchor root tags (core.Universal.RootTags — each slot's
// latest Lamport stamp, bumped by the FIRST register write of every
// publication), run the per-shard reads, collect the tags again, and
// accept only if no tag moved. Stamps are strictly monotone, so equal
// collects witness that no publication's visibility edge fell inside
// the window; every scan that ran within it — including each per-shard
// read — observed exactly the publications stamped before the first
// collect, and the merged responses describe one instant. Tag ABA is
// impossible. After crossRetries unstable rounds the Server falls back
// to the pessimistic path. DESIGN.md decision 12 gives the full
// argument.
//
// Pessimistic quiesce (mutating cross-shard operations, the sim
// backend, and the optimistic fallback): take every shard's write lock
// in ascending order, run the per-shard calls on the quiesced object,
// merge, release. Keyed operations hold their shard's read lock across
// their Do, so a quiesced shard is not mid-operation; ascending
// acquisition (by readers that need more than one lock and writers
// alike) excludes deadlock. Mutating cross-shard operations ALWAYS
// quiesce — a stable tag window mid-mutator would still expose a
// half-applied state to keyed readers, so they are never attempted
// optimistically.
//
// The price, stated plainly: cross-shard operations are lock-based,
// and while one quiesces the object, keyed operations wait. Keyed
// traffic is wait-free only in the absence of cross-shard mutators —
// the tradeoff that buys key-disjoint scaling. The validator's tag
// collects also cost S·n atomic reads per round outside the per-slot
// probe accounting.
//
// A spec that fails the spec.Partitionable gate (or provides no sample
// invocations to check against) degrades to a single shard — always
// sound, exactly like the serve layer's batching degradation — and
// Sharded()/Shards() report which way construction went.
package shard

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/apram"
	"repro/apram/obs"
	"repro/apram/serve"
	"repro/internal/spec"
)

// crossRetries bounds the optimistic validator: after this many
// unstable tag windows a cross-shard read falls back to the
// pessimistic quiesce path, so sustained keyed write traffic delays a
// cross-shard read by at most crossRetries rounds before it forces its
// own quiet window.
const crossRetries = 3

// Server fronts S independent serve.Server shards with single-object
// semantics: Do routes keyed operations by key and composes
// cross-shard ones linearizably. All methods are safe for concurrent
// use.
type Server struct {
	base   spec.Spec
	part   spec.Partitionable // nil when running a single shard
	s      int                // effective shard count
	n      int                // slots per shard
	reason string             // why s == 1 when sharding was requested

	shards []*serve.Server
	objs   []*apram.Object
	locks  []sync.RWMutex
	sim    bool

	// unsafeSnapshots skips the optimistic validator's second tag
	// collect (the planted cross-shard bug); see SetUnsafeSnapshots.
	unsafeSnapshots bool

	// optimistic / retried / quiesced count cross-shard reads that
	// validated first try or after retries, validator rounds that had
	// to be retried, and operations that took the write-lock path.
	optimistic, retried, quiesced atomic.Uint64

	closeOnce sync.Once
}

// New builds a sharded server for spec s with n slots per shard. The
// shard count comes from apram.WithShards (default 1); every other
// option — probes, batching, truncation, backend, names — is applied
// to each shard's serve.Server. A probe attached with apram.WithProbe
// must be sized for S·n slots: shard i's callbacks arrive on slots
// [i·n, (i+1)·n) via obs.Shard. Named servers name their shards
// "<name>/s<i>". Impossible arguments panic with an apram.ArgError.
//
// Sharding is admitted only when the spec implements
// spec.Partitionable and passes spec.CheckPartitionable over its
// sample invocations; otherwise the server degrades to one shard
// (Sharded reports false, Reason says why) and behaves exactly like
// the serve.Server it wraps.
func New(s apram.Spec, n int, opts ...apram.Option) *Server {
	if n <= 0 {
		panic(&apram.ArgError{Fn: "shard.New", Arg: "n", Value: n, Why: "need at least one process slot per shard"})
	}
	ro := apram.ResolveOptions(opts...)
	if ro.Shards < 0 {
		panic(&apram.ArgError{Fn: "shard.New", Arg: "shards", Value: ro.Shards, Why: "shard count must be non-negative"})
	}
	S := ro.Shards
	if S == 0 {
		S = 1
	}

	sv := &Server{base: s, s: S, n: n, sim: ro.Backend.IsSimulated()}
	if S > 1 {
		part, ok := spec.AsPartitionable(s)
		switch {
		case !ok:
			sv.s, sv.reason = 1, fmt.Sprintf("%s does not implement spec.Partitionable", s.Name())
		default:
			sampler, hasSamples := s.(interface{ SampleInvocations() []spec.Inv })
			if !hasSamples {
				sv.s, sv.reason = 1, fmt.Sprintf("%s provides no sample invocations to validate against", s.Name())
				break
			}
			if ok2, why := spec.CheckPartitionable(s, sampler.SampleInvocations()); !ok2 {
				sv.s, sv.reason = 1, why
				break
			}
			sv.part = part
		}
	}
	S = sv.s

	sv.shards = make([]*serve.Server, S)
	sv.objs = make([]*apram.Object, S)
	sv.locks = make([]sync.RWMutex, S)
	for i := 0; i < S; i++ {
		sv.shards[i] = serve.New(s, n, sv.shardOptions(ro, i)...)
		sv.objs[i] = sv.shards[i].Object()
	}
	ro.Register(sv)
	if ro.Telemetry != nil {
		// Each shard registered its own serve.* metrics above (names
		// carry the "/s<i>" suffix); the front door adds the cross-shard
		// composition counters plus whole-object aggregates — the
		// per-shard retention and shed series are what an operator
		// alerts on, but capacity questions ("is the object keeping up
		// with truncation?") want one summed gauge.
		prefix := "shard." + apram.NameOf(sv) + "."
		ro.Telemetry.GaugeFunc(prefix+"optimistic", sv.optimistic.Load)
		ro.Telemetry.GaugeFunc(prefix+"retried", sv.retried.Load)
		ro.Telemetry.GaugeFunc(prefix+"quiesced", sv.quiesced.Load)
		ro.Telemetry.GaugeFunc(prefix+"shed_total", func() uint64 {
			var t uint64
			for _, sh := range sv.shards {
				t += sh.ShedCount()
			}
			return t
		})
		if sv.objs[0].TruncationEnabled() {
			ro.Telemetry.GaugeFunc(prefix+"retained_entries", func() uint64 {
				var t uint64
				for _, obj := range sv.objs {
					t += uint64(obj.Retained())
				}
				return t
			})
			ro.Telemetry.GaugeFunc(prefix+"trunc_lag_epochs", func() uint64 {
				var t uint64
				for _, obj := range sv.objs {
					t += obj.TruncStats().LaggingEpochs
				}
				return t
			})
		}
	}
	return sv
}

// shardOptions rebuilds shard i's option list from the resolved
// options rather than forwarding the caller's list, so the resolved
// Probe is wrapped once in obs.Shard and shifted exactly once.
func (sv *Server) shardOptions(ro apram.Options, i int) []apram.Option {
	opts := []apram.Option{
		apram.WithBatchCap(ro.BatchCap),
		apram.WithQueueDepth(ro.QueueDepth),
		apram.WithBackend(ro.Backend),
		apram.WithAdmission(ro.Admission),
	}
	if ro.TruncateEvery > 0 {
		opts = append(opts, apram.WithTruncateEvery(ro.TruncateEvery))
	}
	if ro.HasSeed {
		opts = append(opts, apram.WithSeed(ro.Seed))
	}
	if ro.Name != "" {
		opts = append(opts, apram.WithName(fmt.Sprintf("%s/s%d", ro.Name, i)))
	}
	if ro.Probe != nil {
		opts = append(opts, apram.WithProbe(obs.Shard(ro.Probe, i*sv.n)))
	}
	if ro.Telemetry != nil {
		opts = append(opts, apram.WithTelemetry(ro.Telemetry))
	}
	return opts
}

// Shards returns the effective shard count (1 when the spec degraded).
func (sv *Server) Shards() int { return sv.s }

// SlotsPerShard returns n, the process-slot count of each shard.
func (sv *Server) SlotsPerShard() int { return sv.n }

// Sharded reports whether the server runs more than one shard.
func (sv *Server) Sharded() bool { return sv.s > 1 }

// Reason explains a degradation to one shard ("" when sharding was
// never requested or was admitted).
func (sv *Server) Reason() string { return sv.reason }

// Shard exposes shard i's serve.Server for observability and test
// oracles; driving it directly while the front door runs bypasses the
// cross-shard fencing.
func (sv *Server) Shard(i int) *serve.Server { return sv.shards[i] }

// CrossStats returns the cross-shard read counters: reads whose
// optimistic window validated, validator rounds retried on unstable
// tags, and operations that took the pessimistic write-lock path.
func (sv *Server) CrossStats() (optimistic, retried, quiesced uint64) {
	return sv.optimistic.Load(), sv.retried.Load(), sv.quiesced.Load()
}

// SetUnsafeSnapshots plants the cross-shard bug the chaos harness must
// catch: the optimistic path keeps its per-shard reads but skips the
// validating second tag collect, accepting whatever each shard
// answered — the naive compose-independent-reads strategy, which
// admits global states no single instant exhibits. For fault-injection
// harness validation only. Call before the server is shared.
func (sv *Server) SetUnsafeSnapshots() { sv.unsafeSnapshots = true }

// Close shuts every shard down; pending requests fail with
// serve.ErrClosed. Idempotent.
func (sv *Server) Close() {
	sv.closeOnce.Do(func() {
		for _, sh := range sv.shards {
			sh.Close()
		}
	})
}

// Do executes one logical operation, blocking until it completes, ctx
// is cancelled, or the server closes. Keyed operations go to their
// key's shard under its read lock; cross-shard operations compose
// per-shard results as described in the package comment.
func (sv *Server) Do(ctx context.Context, inv apram.Inv) (any, error) {
	return sv.DoRequest(ctx, serve.Request{Inv: inv})
}

// DoRequest is Do with tenant attribution: keyed operations carry
// their tenant label and priority to their shard's front door, so
// admission and the per-tenant telemetry series work per shard exactly
// as on an unsharded server. Cross-shard operations fan out to every
// shard unattributed — attributing one logical operation S times would
// overcount the tenant's series — and are admitted under each shard's
// default path. The error contract is serve.DoRequest's.
func (sv *Server) DoRequest(ctx context.Context, r serve.Request) (any, error) {
	if sv.s == 1 {
		return sv.shards[0].DoRequest(ctx, r)
	}
	inv := r.Inv
	if key, keyed := sv.part.PartitionKey(inv); keyed {
		i := spec.PartitionIndex(key, sv.s)
		sv.locks[i].RLock()
		defer sv.locks[i].RUnlock()
		return sv.shards[i].DoRequest(ctx, r)
	}
	if spec.IsPure(sv.base, inv) && !sv.sim {
		if resp, ok, err := sv.crossOptimistic(ctx, inv); ok || err != nil {
			return resp, err
		}
	}
	return sv.crossQuiesce(ctx, inv)
}

// crossOptimistic attempts a cross-shard pure read without excluding
// keyed writers: tag collect, per-shard reads, tag collect, accept on
// stability. It holds every shard's READ lock for the whole attempt —
// keyed traffic proceeds (tag instability handles it), but a
// pessimistic cross-shard mutator cannot interleave, so no window can
// straddle a half-applied vzero/clear. Returns ok=false after
// crossRetries unstable windows.
func (sv *Server) crossOptimistic(ctx context.Context, inv apram.Inv) (any, bool, error) {
	sv.rlockAll()
	defer sv.runlockAll()
	before := make([][]uint64, sv.s)
	after := make([][]uint64, sv.s)
	parts := make([]any, sv.s)
	for attempt := 0; attempt < crossRetries; attempt++ {
		for i, obj := range sv.objs {
			before[i] = obj.RootTags(before[i])
		}
		for i, sh := range sv.shards {
			resp, err := sh.Do(ctx, inv)
			if err != nil {
				return nil, false, err
			}
			parts[i] = resp
		}
		if sv.unsafeSnapshots {
			// Planted bug: accept the naive one-pass compose.
			sv.optimistic.Add(1)
			return sv.part.MergeResponses(inv, parts), true, nil
		}
		stable := true
		for i, obj := range sv.objs {
			after[i] = obj.RootTags(after[i])
			for q, tag := range after[i] {
				if tag != before[i][q] {
					stable = false
				}
			}
		}
		if stable {
			sv.optimistic.Add(1)
			return sv.part.MergeResponses(inv, parts), true, nil
		}
		sv.retried.Add(1)
	}
	return nil, false, nil
}

// crossQuiesce runs a cross-shard operation on the quiesced object:
// every shard's write lock, taken in ascending order, drains and
// excludes keyed operations (they hold read locks across their Do), so
// the sequential per-shard calls all observe — and mutate — one global
// instant.
func (sv *Server) crossQuiesce(ctx context.Context, inv apram.Inv) (any, error) {
	for i := range sv.locks {
		sv.locks[i].Lock()
		defer sv.locks[i].Unlock()
	}
	sv.quiesced.Add(1)
	parts := make([]any, sv.s)
	for i, sh := range sv.shards {
		resp, err := sh.Do(ctx, inv)
		if err != nil {
			return nil, err
		}
		parts[i] = resp
	}
	return sv.part.MergeResponses(inv, parts), nil
}

func (sv *Server) rlockAll() {
	for i := range sv.locks {
		sv.locks[i].RLock()
	}
}

func (sv *Server) runlockAll() {
	for i := range sv.locks {
		sv.locks[i].RUnlock()
	}
}
