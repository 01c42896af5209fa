package chaos

import (
	"testing"

	"repro/internal/types"
)

// TestNativeTruncateUnderFaults drives the checkpoint-and-truncate
// protocol on real goroutines over sync/atomic registers, with crash
// and preemption-stall injection. Unlike the simulated targets the
// interleaving here is the Go scheduler's — true parallelism, real
// contention on the snapshot — so a pass means the protocol's
// fold-before-cut ordering holds under weak-memory execution, not just
// under the step-serialized simulator. Run under -race in CI; the safe
// protocol must be race-clean.
func TestNativeTruncateUnderFaults(t *testing.T) {
	type cfg struct {
		structure string
		ops       int
		crashes   int
		stalls    int
	}
	for _, c := range []cfg{
		{"truncate-counter", 12, 1, 2},
		{"truncate-gset", 10, 0, 3},
	} {
		var epochs uint64
		for seed := int64(0); seed < 25; seed++ {
			rep, err := RunNative(Config{Structure: c.structure, Seed: seed,
				OpsPerProc: c.ops, Crashes: c.crashes, Stalls: c.stalls})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed() {
				t.Fatalf("%s seed %d: %v", c.structure, seed, rep.Failures)
			}
			epochs += rep.Trunc.Epochs
		}
		if epochs == 0 {
			t.Errorf("%s: no epoch completed across the sweep — the stress is vacuous", c.structure)
		}
	}
}

// TestNativeBaseStructures covers the non-truncating native path: the
// plain universal construction on every Property 1 type, the types it
// promises to keep linearizable. The queue is not Property 1, so it has
// no such promise; it is the planted violator the chaos CI row checks.
func TestNativeBaseStructures(t *testing.T) {
	for _, typ := range types.Property1Types() {
		structure := typ.Name()
		for seed := int64(0); seed < 5; seed++ {
			rep, err := RunNative(Config{Structure: structure, Seed: seed, OpsPerProc: 8, Stalls: 1})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed() {
				t.Fatalf("%s seed %d: %v", structure, seed, rep.Failures)
			}
		}
	}
}

// TestNativePlantedBugCaught is the native acceptance test for the
// planted truncation bug: with the watermark's −1 removed, live
// anchors get folded and freed while scans can still reach them, and
// some schedules must produce an observable failure (a non-
// linearizable history or a verdict panic). The catch is inherently
// probabilistic here — the Go scheduler decides whether the racing
// window opens — so the assertion is over a seed sweep, and the
// deterministic guarantee lives in the simulated target
// (TestTruncatePlantedBugCaught). Skipped under -race: the planted
// bug IS a data race on native atomics, and the detector (correctly)
// aborts the process when it fires.
func TestNativePlantedBugCaught(t *testing.T) {
	if raceDetectorOn {
		t.Skip("planted-bug native runs legitimately trip the race detector; sim target covers this deterministically")
	}
	caught := 0
	for seed := int64(0); seed < 24; seed++ {
		rep, err := RunNative(Config{Structure: "truncate-counter-bug", Seed: seed, OpsPerProc: 10})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failed() {
			caught++
		}
	}
	if caught == 0 {
		t.Fatal("planted truncation bug never caught across 24 native seeds")
	}
	t.Logf("planted bug caught on %d/24 native seeds", caught)
}

// TestNativeTargetResolution pins the native structure registry: every
// advertised name resolves, machine-granular targets are rejected, and
// truncate-* requires a Property-1 type.
func TestNativeTargetResolution(t *testing.T) {
	for _, name := range NativeStructures() {
		if _, _, _, err := nativeTarget(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for _, name := range []string{"snapshot", "dcsnapshot", "serve-counter", "truncate-queue", "nope"} {
		if _, _, _, err := nativeTarget(name); err == nil {
			t.Errorf("%s: expected resolution error", name)
		}
	}
}
