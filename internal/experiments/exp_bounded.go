package experiments

import (
	"repro/internal/core"
	"repro/internal/types"
)

// E19BoundedMemory quantifies the checkpoint-and-truncate protocol:
// the paper's construction retains every entry ever published (the
// space cost Section 5.4's closing remark concedes to type-specific
// implementations), so a long-running object's footprint and per-op
// cost both grow with lifetime operation count. With truncation
// enabled, the settled prefix folds into a checkpoint and the live
// graph stays at a few hundred entries no matter how many operations
// have flowed through — at identical responses, since the protocol
// performs no shared accesses of its own.
func E19BoundedMemory() Table {
	t := Table{
		ID: "E19",
		Title: "Bounded memory: checkpoint-and-truncate vs the unbounded " +
			"entry graph (extension)",
		PaperClaim: "the universal construction keeps every operation's entry " +
			"reachable forever (Section 5.4 concedes the space cost to " +
			"type-specific implementations); folding the settled prefix into a " +
			"checkpoint bounds the graph without touching shared memory, so " +
			"responses and register-access counts are unchanged",
		Columns: []string{"ops", "unbounded retained", "unbounded ns/op",
			"truncated retained", "truncated ns/op", "epochs"},
	}
	const n, every, window = 4, 128, 1024
	arm := func(total, every int) (retained int, ns int64, epochs uint64) {
		u := core.New(types.Counter{}, n)
		if every > 0 {
			u.EnableTruncation(every)
		}
		// Grow the history untimed, then time a trailing window: the
		// window's per-op cost reflects the graph the object is stuck
		// with at that point in its life.
		for i := 0; i < total-window; i++ {
			u.Execute(i%n, types.Inc(1))
		}
		ns = timePerOp(window, func(i int) {
			u.Execute(i%n, types.Inc(1))
		})
		return u.Retained(), ns, u.TruncStats().Epochs
	}
	for _, total := range []int{2048, 8192, 16384} {
		ur, uns, _ := arm(total, 0)
		tr, tns, epochs := arm(total, every)
		t.AddRow(total, ur, uns, tr, tns, epochs)
	}
	t.Notes = append(t.Notes,
		"both arms execute the identical operation sequence; truncation advances only",
		"at operation boundaries and performs no shared accesses, so the simulated",
		"backend's step trace is bit-identical with truncation on or off",
		"(TestTruncateSimTraceIdentical); equivalence under faults is the chaos",
		"harness's truncate-counter/truncate-gset lockstep targets")
	return t
}
