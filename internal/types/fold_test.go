package types

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/spec"
)

// The checkpoint of checkpoint-and-truncate (DESIGN decision 11) is a
// fold: core.Linearizer.Truncate replays a settled history prefix onto
// its base state and keeps the result as the new base, from which every
// later replay starts. These tests pin, per Property 1 type, what that
// relies on at the spec level: a replay resumed from a folded prefix is
// the full replay, the folded state survives any number of resumptions
// unchanged, and the serving layer's batched spec folds to the base
// spec's states.

// foldScript returns a seeded random script of length m drawn from the
// spec's sample invocations.
func foldScript(s Sampler, seed int64, m int) []spec.Inv {
	rng := rand.New(rand.NewSource(seed))
	invs := s.SampleInvocations()
	out := make([]spec.Inv, m)
	for i := range out {
		out[i] = invs[rng.Intn(len(invs))]
	}
	return out
}

// TestCheckpointRoundTrip: for every cut of a random history, folding
// the prefix into a checkpoint and resuming the suffix from it gives
// the same suffix responses and the same final state (Equal and Key)
// as replaying the whole history from Init.
func TestCheckpointRoundTrip(t *testing.T) {
	for _, s := range Property1Types() {
		t.Run(s.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				script := foldScript(s, seed, 24)
				full, fullResps := spec.Replay(s, script)
				for k := 0; k <= len(script); k++ {
					ck, _ := spec.Replay(s, script[:k])
					got, resps := spec.ReplayFrom(s, ck, script[k:])
					if !reflect.DeepEqual(resps, fullResps[k:]) {
						t.Fatalf("seed %d cut %d: resumed responses %v, full replay %v", seed, k, resps, fullResps[k:])
					}
					if !s.Equal(got, full) || s.Key(got) != s.Key(full) {
						t.Fatalf("seed %d cut %d: resumed state %q, full replay %q", seed, k, s.Key(got), s.Key(full))
					}
				}
			}
		})
	}
}

// TestCheckpointMakeRestore: a checkpoint is made once and restored
// from many times — every rebuild after a truncation replays from the
// same base. Resuming two different suffixes from one folded state
// must leave that state's Key unchanged (Apply may not mutate its
// input), and each resumption must match a fresh replay of its whole
// history.
func TestCheckpointMakeRestore(t *testing.T) {
	for _, s := range Property1Types() {
		t.Run(s.Name(), func(t *testing.T) {
			for seed := int64(0); seed < 8; seed++ {
				prefix := foldScript(s, seed, 12)
				ck, _ := spec.Replay(s, prefix)
				key := s.Key(ck)
				for r := int64(0); r < 2; r++ {
					suffix := foldScript(s, 100+2*seed+r, 12)
					got, _ := spec.ReplayFrom(s, ck, suffix)
					want, _ := spec.Replay(s, append(append([]spec.Inv(nil), prefix...), suffix...))
					if !s.Equal(got, want) || s.Key(got) != s.Key(want) {
						t.Fatalf("seed %d restore %d: resumed state %q, fresh replay %q", seed, r, s.Key(got), s.Key(want))
					}
					if s.Key(ck) != key {
						t.Fatalf("seed %d restore %d: checkpoint changed from %q to %q", seed, r, key, s.Key(ck))
					}
				}
			}
		})
	}
}

// TestCheckpointBatchedDelegation: the serving layer linearizes
// spec.Batch(s), whose states are s's. A prefix folded through batched
// invocations is the state the flat prefix folds to under s, also when
// it is advanced without responses (spec.Advance, the linearizer's
// replay step), and resuming from it, batched or flat, matches the
// flat full replay.
func TestCheckpointBatchedDelegation(t *testing.T) {
	for _, s := range Property1Types() {
		t.Run(s.Name(), func(t *testing.T) {
			b := spec.Batch(s)
			for seed := int64(0); seed < 8; seed++ {
				rng := rand.New(rand.NewSource(seed))
				script := foldScript(s, seed, 24)
				// Group the script into batches of 1..4 members.
				var batches []spec.Inv
				var bounds []int // flat length after each batch
				for i := 0; i < len(script); {
					j := i + 1 + rng.Intn(4)
					if j > len(script) {
						j = len(script)
					}
					batches = append(batches, spec.BatchInv(script[i:j]...))
					bounds = append(bounds, j)
					i = j
				}
				full, _ := spec.Replay(s, script)
				adv := b.Init()
				for c := range batches {
					ck, _ := spec.Replay(b, batches[:c+1])
					flat, _ := spec.Replay(s, script[:bounds[c]])
					if !s.Equal(ck, flat) || b.Key(ck) != s.Key(flat) {
						t.Fatalf("seed %d batch %d: batched fold %q, flat fold %q", seed, c, b.Key(ck), s.Key(flat))
					}
					if adv = spec.Advance(b, adv, batches[c]); b.Key(adv) != b.Key(ck) {
						t.Fatalf("seed %d batch %d: advanced fold %q, batched fold %q", seed, c, b.Key(adv), b.Key(ck))
					}
					viaBatch, _ := spec.ReplayFrom(b, ck, batches[c+1:])
					viaFlat, _ := spec.ReplayFrom(s, ck, script[bounds[c]:])
					if !s.Equal(viaBatch, full) || !s.Equal(viaFlat, full) {
						t.Fatalf("seed %d batch %d: resumed %q (batched) / %q (flat), full replay %q",
							seed, c, s.Key(viaBatch), s.Key(viaFlat), s.Key(full))
					}
				}
			}
		})
	}
}
