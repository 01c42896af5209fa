package chaos

import (
	"testing"

	"repro/internal/types"
)

// truncateEvents sums the "truncate" (epoch-complete) events the run's
// probe recorded across slots.
func truncateEvents(rep *Report) uint64 {
	var total uint64
	for _, ss := range rep.Stats.Snapshot().PerSlot {
		total += ss.Events["truncate"]
	}
	return total
}

// TestTruncateTargetsUnderFaults is satellite coverage for the
// checkpoint-and-truncate protocol under the chaos scheduler: across
// the CI seed set, with crash and stall faults injected mid-epoch, the
// truncated system must stay access-for-access and response-for-
// response identical to its unbounded reference twin (the target's
// built-in oracle), linearizable, and within the wait-freedom bounds.
// Crashed processes never ack an epoch — the epoch stalls, which must
// be safe, so Epochs > 0 is asserted over the sweep, not per run.
// Every Property-1 type has a target.
func TestTruncateTargetsUnderFaults(t *testing.T) {
	for _, typ := range types.Property1Types() {
		structure := "truncate-" + typ.Name()
		var epochs uint64
		for _, seed := range ciSeeds {
			rep, err := Run(Config{Structure: structure, Seed: seed,
				OpsPerProc: 6, Crashes: 1, Stalls: 1})
			if err != nil {
				t.Fatalf("%s seed %d: %v", structure, seed, err)
			}
			if rep.Failed() {
				t.Fatalf("%s seed %d: %v", structure, seed, rep.Failures)
			}
			epochs += truncateEvents(rep)
		}
		if epochs == 0 {
			t.Errorf("%s: no truncation epoch completed across %d seeds — the target is vacuous", structure, len(ciSeeds))
		}
	}
}

// TestTruncateTargetFaultlessEpochs pins that on clean runs (no
// faults) epochs complete routinely: every slot keeps taking turns, so
// with every=1 the protocol must actually cut.
func TestTruncateTargetFaultlessEpochs(t *testing.T) {
	ran := 0
	for _, seed := range ciSeeds[:10] {
		rep, err := Run(Config{Structure: "truncate-counter", Seed: seed, OpsPerProc: 8})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() {
			t.Fatalf("seed %d: %v", seed, rep.Failures)
		}
		if truncateEvents(rep) > 0 {
			ran++
		}
	}
	if ran < 5 {
		t.Fatalf("epochs completed in only %d/10 faultless runs", ran)
	}
}

// TestTruncatePlantedBugCaught is the acceptance test for the planted
// truncation bug: with the watermark's −1 removed (SetUnsafe), the
// fold set includes live anchors, a later scan re-discovers a freed
// entry, and the harness must catch the divergence — via the reference
// twin, the linearizability oracle, or a verdict panic. The failing
// trace must shrink to a smaller reproducer that still fails.
func TestTruncatePlantedBugCaught(t *testing.T) {
	failures := 0
	var failing *Report
	for seed := int64(0); seed < 20; seed++ {
		rep, err := Run(Config{Structure: "truncate-counter-bug", Seed: seed, OpsPerProc: 6})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() {
			failures++
			if failing == nil {
				failing = rep
			}
		}
	}
	if failures == 0 {
		t.Fatal("planted truncation bug was never caught across 20 seeds")
	}
	t.Logf("planted bug caught on %d/20 seeds; first failure: %v", failures, failing.Failures[0])

	min, err := Shrink(failing.Trace)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(min)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.FailsOracle(min.Oracle) {
		t.Fatalf("shrunk trace no longer fails oracle %q", min.Oracle)
	}
	if TraceSize(min) > TraceSize(failing.Trace) {
		t.Fatalf("shrink grew the trace: %d -> %d", TraceSize(failing.Trace), TraceSize(min))
	}
}

// TestTruncateBugSafeVariantDiffersOnlyInWatermark: the same seeds on
// the safe target must all pass — the planted failure is attributable
// to the watermark change alone, not to the composite harness.
func TestTruncateBugSafeVariantDiffersOnlyInWatermark(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rep, err := Run(Config{Structure: "truncate-counter", Seed: seed, OpsPerProc: 6})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() {
			t.Fatalf("safe variant failed on seed %d: %v", seed, rep.Failures)
		}
	}
}
