// Partition: the contract behind the sharded universal construction.
// A keyed Property-1 object can be split across S independent anchor
// arrays only if the split is invisible: every operation must either
// touch a single key (so it can be routed to that key's shard) or
// declare itself cross-partition (so the shard layer can fan it out
// and recombine the per-shard responses). The gate below validates the
// contract two ways — algebraically (operations on distinct keys must
// commute, or routing them to independently-linearizing shards would
// invent orderings the sequential spec forbids) and executably (a
// deterministic 2-way split replay must reproduce the unpartitioned
// object's responses verbatim). Types that fail the gate simply run
// unsharded (singleton degradation), the same graceful fallback as
// CheckBatchable.
package spec

import (
	"hash/fnv"
	"reflect"
)

// Partitionable is an optional Spec extension: a keyed type whose
// operations can be routed across independent partitions of its key
// space.
type Partitionable interface {
	Spec
	// PartitionKey returns the single key inv touches, and true, when
	// inv's footprint is one key; it returns ("", false) for a
	// cross-partition operation that observes or mutates every key
	// (e.g. a full-map read or a global reset).
	PartitionKey(inv Inv) (key string, keyed bool)
	// MergeResponses folds the per-partition responses of one
	// cross-partition invocation — parts[i] from partition i, every
	// partition applied or read exactly once — into the response the
	// unpartitioned object returns from the combined state. For
	// set-shaped reads this is the semilattice join of the parts (set
	// union, map union over disjoint keys); for aggregates it is a
	// commutative monoid fold (sum). Mutators with nil responses
	// return nil.
	MergeResponses(inv Inv, parts []any) any
}

// Unwrapper is implemented by derived specs (notably Batch) that
// delegate their state and key space to a base spec; AsPartitionable
// follows the chain so a batched keyed type shards like its base.
type Unwrapper interface {
	Unwrap() Spec
}

// AsPartitionable returns the partition contract for s, unwrapping
// derived specs (notably Batch) whose key space delegates to a base
// spec. It returns false when neither s nor any spec it wraps
// implements Partitionable — the caller must then run unsharded.
func AsPartitionable(s Spec) (Partitionable, bool) {
	for s != nil {
		if p, ok := s.(Partitionable); ok {
			return p, true
		}
		u, ok := s.(Unwrapper)
		if !ok {
			return nil, false
		}
		s = u.Unwrap()
	}
	return nil, false
}

// PartitionIndex is the deterministic key partitioner shared by the
// shard layer, the chaos targets, and the gate's replay: FNV-1a of the
// key modulo the partition count. Every component must agree on this
// function or a key's operations would land on different shards.
func PartitionIndex(key string, partitions int) int {
	if partitions <= 1 {
		return 0
	}
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(partitions))
}

// CheckPartitionable reports whether base can be sharded by key, by
// validating the Partitionable contract against the sampled
// invocations. The returned reason names the first violation ("" when
// partitionable):
//
//   - base (after unwrapping) must implement Partitionable and invs
//     must contain at least one keyed invocation;
//   - every pair of keyed invocations with distinct keys must commute
//     in both orders — distinct keys land on distinct shards whose
//     linearizations interleave arbitrarily, so any order must yield
//     the same object;
//   - a deterministic 2-way split replay of every invocation pair and
//     triple (cross-partition operations fanned out and merged) must
//     reproduce the unpartitioned replay's responses exactly,
//     including a trailing sweep of every pure invocation.
//
// The gate runs once at construction time; like CheckBatchable, a
// false result means the caller degrades to a single partition rather
// than failing.
func CheckPartitionable(base Spec, invs []Inv) (ok bool, reason string) {
	part, isPart := AsPartitionable(base)
	if !isPart {
		return false, "spec does not implement Partitionable"
	}
	keyed := 0
	for _, in := range invs {
		if _, k := part.PartitionKey(in); k {
			keyed++
		}
	}
	if keyed == 0 {
		return false, "no keyed invocation in the sample set"
	}
	for _, p := range invs {
		kp, okp := part.PartitionKey(p)
		if !okp {
			continue
		}
		for _, q := range invs {
			kq, okq := part.PartitionKey(q)
			if !okq || kp == kq {
				continue
			}
			if !base.Commutes(p, q) || !base.Commutes(q, p) {
				return false, "keyed invocations " + p.Op + "(" + kp + ") and " + q.Op + "(" + kq + ") do not commute"
			}
		}
	}
	// Executable validation: every pair and triple of sampled
	// invocations, replayed unpartitioned and through a 2-way split,
	// must agree on every response. The trailing pure sweep catches
	// state divergence the scripted responses happen to mask.
	var pures []Inv
	for _, in := range invs {
		if IsPure(base, in) {
			pures = append(pures, in)
		}
	}
	check := func(script []Inv) (bool, string) {
		script = append(append([]Inv(nil), script...), pures...)
		want := replayWhole(part, script)
		got := replaySplit(part, 2, script)
		for i := range script {
			if !reflect.DeepEqual(want[i], got[i]) {
				return false, "2-way split replay diverges on " + script[i].Op
			}
		}
		return true, ""
	}
	for _, p := range invs {
		for _, q := range invs {
			if ok, why := check([]Inv{p, q}); !ok {
				return false, why
			}
			for _, r := range invs {
				if ok, why := check([]Inv{p, q, r}); !ok {
					return false, why
				}
			}
		}
	}
	return true, ""
}

// replayWhole runs script against a single unpartitioned state and
// returns the responses.
func replayWhole(s Spec, script []Inv) []any {
	st := s.Init()
	out := make([]any, len(script))
	for i, in := range script {
		st, out[i] = s.Apply(st, in)
	}
	return out
}

// replaySplit runs script through a deterministic key split across the
// given number of partitions: keyed invocations apply to their key's
// partition alone, cross-partition invocations apply to every
// partition in order with the responses merged. This is the sequential
// model of the shard layer — what the gate (and the sharding tests)
// hold the real concurrent composition to.
func replaySplit(p Partitionable, partitions int, script []Inv) []any {
	states := make([]State, partitions)
	for i := range states {
		states[i] = p.Init()
	}
	out := make([]any, len(script))
	for i, in := range script {
		if key, keyed := p.PartitionKey(in); keyed {
			j := PartitionIndex(key, partitions)
			states[j], out[i] = p.Apply(states[j], in)
			continue
		}
		parts := make([]any, partitions)
		for j := range states {
			states[j], parts[j] = p.Apply(states[j], in)
		}
		out[i] = p.MergeResponses(in, parts)
	}
	return out
}
