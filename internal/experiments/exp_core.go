package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/pram"
	"repro/internal/spec"
	"repro/internal/types"
)

// E6UniversalOverhead measures the universal construction's per-op
// synchronization cost in the simulator.
func E6UniversalOverhead() Table {
	t := Table{
		ID:         "E6",
		Title:      "Universal construction synchronization overhead",
		PaperClaim: "worst-case O(n²) reads and writes per operation (Sections 1, 5.4)",
		Columns:    []string{"n", "reads/op", "writes/op", "total/op", "2n²+O(n) model", "total / n²"},
	}
	for _, n := range []int{2, 4, 8, 12, 16} {
		mem := pram.NewMem(n*(n+2), n)
		u := core.NewSim(types.Counter{}, n, 0, mem)
		machines := make([]pram.Machine, n)
		var probe *core.Machine
		for p := 0; p < n; p++ {
			m := core.NewMachine(u, p, []spec.Inv{types.Inc(1)})
			machines[p] = m
			if p == 0 {
				probe = m
			}
		}
		sys := pram.NewSystem(mem, machines)
		before := sys.Mem.Counters()
		for !probe.Done() {
			sys.Step(0)
		}
		d := sys.Mem.Counters().Sub(before)
		total := d.Reads + d.Writes
		model := core.OpReads(n) + core.OpWrites(n)
		t.AddRow(n, d.Reads, d.Writes, total, model, float64(total)/float64(n*n))
	}
	t.Notes = append(t.Notes,
		"total/op equals the model exactly: two optimized scans, 2(n²−1) reads + 2(n+1) writes",
		"the total/n² column settles near 2 — the promised O(n²) with constant ≈ 2")
	return t
}

// E10Algebra prints the Property 1 verdict for every type.
func E10Algebra() Table {
	t := Table{
		ID:         "E10",
		Title:      "Algebraic characterization (Property 1) per data type",
		PaperClaim: "counters, logical clocks and certain set abstractions satisfy Property 1 (Section 5.1); consensus-solving types cannot",
		Columns:    []string{"type", "invocations", "algebra violations", "Property 1", "witness"},
	}
	for _, s := range types.AllTypes() {
		invs := s.SampleInvocations()
		vs := spec.CheckAlgebra(s, s.SampleStates(), invs)
		nonP1 := 0
		for _, v := range vs {
			if v.Kind == "property1" {
				nonP1++
			}
		}
		ok, w := spec.SatisfiesProperty1(s, invs)
		witness := "-"
		if !ok {
			witness = fmt.Sprintf("%v vs %v", w[0], w[1])
		}
		t.AddRow(s.Name(), len(invs), len(vs)-nonP1, ok, witness)
	}
	t.Notes = append(t.Notes,
		"the queue's witness pair is two dequeues: they neither commute (responses swap)",
		"nor overwrite each other — precisely the algebraic shadow of its consensus power")
	return t
}

// E11TypeSpecific compares the generic universal counter against the
// direct (type-specific) counter natively: the generic construction
// replays its entire entry graph per operation, so its per-op cost
// grows with history length, while the direct counter stays flat.
func E11TypeSpecific() Table {
	t := Table{
		ID:    "E11",
		Title: "Type-specific optimization vs generic universal construction",
		PaperClaim: "type-specific optimizations can discard most of the precedence graph " +
			"(Section 5.4, closing remark)",
		Columns: []string{"history length", "universal ns/op", "direct ns/op", "speedup"},
	}
	const n = 4
	uni := core.New(types.Counter{}, n)
	dir := types.NewDirectCounter(n)
	cumulative := 0
	for _, batch := range []int{50, 100, 200, 400} {
		uniNs, dirNs := timeAlternating(batch, 10,
			func(i int) { uni.Execute(i%n, types.Inc(1)) },
			func(i int) { dir.Inc(i%n, 1) })
		cumulative += batch
		t.AddRow(cumulative, uniNs, dirNs, float64(uniNs)/float64(dirNs))
	}
	t.Notes = append(t.Notes,
		"ns/op is each arm's fastest 10-op slice, the two arms timed in alternation;",
		"both are wait-free and share the same O(n²)-register snapshot;",
		"the incremental linearizer has flattened the universal counter's historic",
		"per-op growth (see E16), but the direct counter still skips the entry graph",
		"entirely — the stronger win the paper predicts")
	return t
}

// E16LongHistory quantifies the incremental-linearization engine: with
// the per-process cache on, an operation's local cost is proportional
// to Δ (entries new since that process's previous scan), not to the
// full history length m. The rebuild arm disables the cache, forcing
// the pre-engine behaviour — a full O(m²) graph replay per operation —
// on the very same object and history.
func E16LongHistory() Table {
	t := Table{
		ID:    "E16",
		Title: "Incremental linearization: per-op cost vs history length (extension)",
		PaperClaim: "the cost model charges shared-memory accesses only (Section 2), " +
			"so local caching of the linearization is semantically invisible",
		Columns: []string{"history length", "cached ns/op", "rebuild ns/op", "speedup", "rebuilds (cached)"},
	}
	const n = 4
	build := func(h int, incremental bool) *core.Universal {
		// Build the history with the cache on (cheap), then time pure
		// reads: Δ=0 for the cached arm, a full h-entry rebuild per
		// read for the ablation arm. One warm read keeps the mode
		// switch off the clock.
		u := core.New(types.Counter{}, n)
		for i := 0; i < h; i++ {
			u.Execute(i%n, types.Inc(1))
		}
		u.SetIncremental(incremental)
		u.Execute(0, types.Read())
		return u
	}
	read := func(u *core.Universal) func(int) {
		return func(int) { u.Execute(0, types.Read()) }
	}
	for _, h := range []int{128, 512, 1024} {
		cached, rebuild := build(h, true), build(h, false)
		before := cached.LinStats(0).Rebuilds
		cachedNs, rebuildNs := timeAlternating(100, 10, read(cached), read(rebuild))
		t.AddRow(h, cachedNs, rebuildNs, float64(rebuildNs)/float64(cachedNs),
			cached.LinStats(0).Rebuilds-before)
	}
	t.Notes = append(t.Notes,
		"ns/op is each arm's fastest 10-read slice, the two arms timed in alternation;",
		"both arms execute the identical operation sequence on identical objects;",
		"only the local cache differs, so the shared-access trace — the quantity the",
		"paper's cost model counts — is bit-for-bit the same (TestTraceUnchangedByIncrementalCache)")
	return t
}

// timeAlternating runs count operations of each of two arms in
// alternating slices of slice operations and returns each arm's fastest
// slice in ns/op. Load from other processes that comes and goes during
// the run then slows some slices of both arms, not all of one.
func timeAlternating(count, slice int, a, b func(i int)) (aNs, bNs int64) {
	aNs, bNs = math.MaxInt64, math.MaxInt64
	for lo := 0; lo < count; lo += slice {
		k := min(slice, count-lo)
		aNs = min(aNs, timePerOp(k, func(i int) { a(lo + i) }))
		bNs = min(bNs, timePerOp(k, func(i int) { b(lo + i) }))
	}
	return aNs, bNs
}

// timePerOp runs f count times sequentially and returns ns per call.
func timePerOp(count int, f func(i int)) int64 {
	start := time.Now()
	for i := 0; i < count; i++ {
		f(i)
	}
	return time.Since(start).Nanoseconds() / int64(count)
}
