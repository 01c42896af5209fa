package experiments

import (
	"context"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/types"
)

func TestE1WithinBound(t *testing.T) {
	tab := E1Steps()
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tab.Rows {
		ratio, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatalf("bad ratio cell %q", row[5])
		}
		if ratio > 1 {
			t.Errorf("n=%s Δ/ε=%s %s: measured steps exceed Theorem 5 bound (ratio %v)",
				row[0], row[1], row[2], ratio)
		}
	}
}

func TestE2LemmaThree(t *testing.T) {
	tab := E2Shrink()
	sawSamples := false
	for _, row := range tab.Rows {
		worst, err := strconv.ParseFloat(row[5], 64)
		if err != nil {
			t.Fatalf("bad cell %q", row[5])
		}
		if worst > 0.5+1e-9 {
			t.Errorf("n=%s %s: worst shrink ratio %v > 1/2", row[0], row[1], worst)
		}
		if samples, _ := strconv.Atoi(row[4]); samples > 0 {
			sawSamples = true
		}
	}
	if !sawSamples {
		t.Error("no shrink samples collected anywhere; experiment is vacuous")
	}
}

func TestE3FloorRespected(t *testing.T) {
	tab := E3Adversary()
	for _, row := range tab.Rows {
		floor, _ := strconv.Atoi(row[2])
		forced, _ := strconv.Atoi(row[3])
		if forced < floor {
			t.Errorf("k=%s: forced %d < floor %d", row[0], forced, floor)
		}
	}
}

func TestE4HierarchyShape(t *testing.T) {
	tab := E4Hierarchy()
	if len(tab.Rows) != 9 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The Theorem 8 rows (unbounded Δ) must show strictly growing
	// forced work.
	var prev int
	for _, row := range tab.Rows[5:] {
		forced, _ := strconv.Atoi(row[2])
		if forced <= prev {
			t.Errorf("Theorem 8 rows not strictly growing: %d after %d", forced, prev)
		}
		prev = forced
	}
}

func TestE5AllMatch(t *testing.T) {
	tab := E5ScanCounts()
	for _, row := range tab.Rows {
		if row[6] != "true" {
			t.Errorf("n=%s %s: counts do not match formulas: %v", row[0], row[1], row)
		}
	}
}

func TestE6ModelExact(t *testing.T) {
	tab := E6UniversalOverhead()
	for _, row := range tab.Rows {
		if row[3] != row[4] {
			t.Errorf("n=%s: total %s != model %s", row[0], row[3], row[4])
		}
	}
}

func TestE9Bases(t *testing.T) {
	tab := E9ConvergenceBase()
	// Row 0: adversary worst shrink ≥ 1/3 − slack.
	worst, _ := strconv.ParseFloat(tab.Rows[0][2], 64)
	if worst < 1.0/3-1e-9 {
		t.Errorf("adversary shrink %v < 1/3", worst)
	}
	// Fair rows: worst shrink ≤ 1/2.
	for _, row := range tab.Rows[1:] {
		w, _ := strconv.ParseFloat(row[2], 64)
		if w > 0.5+1e-9 {
			t.Errorf("%s: shrink %v > 1/2", row[0], w)
		}
	}
}

func TestE10Verdicts(t *testing.T) {
	tab := E10Algebra()
	want := map[string]string{
		"counter": "true", "logical-clock": "true", "gset": "true",
		"maxreg": "true", "register": "true", "directory": "true",
		"queue": "false", "stickybit": "false",
	}
	for _, row := range tab.Rows {
		if w, ok := want[row[0]]; ok && row[3] != w {
			t.Errorf("%s: Property 1 = %s, want %s", row[0], row[3], w)
		}
		if row[2] != "0" {
			t.Errorf("%s: %s algebra violations", row[0], row[2])
		}
	}
}

func TestE11SpeedupPositive(t *testing.T) {
	tab := E11TypeSpecific()
	last := tab.Rows[len(tab.Rows)-1]
	speedup, err := strconv.ParseFloat(last[3], 64)
	if err != nil {
		t.Fatalf("bad speedup %q", last[3])
	}
	if speedup <= 1 {
		t.Errorf("direct counter not faster at history length %s (speedup %v)", last[0], speedup)
	}
}

func TestE7AndE8Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiments skipped in -short")
	}
	e7 := E7SnapshotComparison()
	if len(e7.Rows) != 12 {
		t.Errorf("E7 rows = %d", len(e7.Rows))
	}
	e8 := E8FailureInjection()
	if len(e8.Rows) != 4 {
		t.Errorf("E8 rows = %d", len(e8.Rows))
	}
	// Mutex rows must lose essentially all throughput when stalled;
	// wait-free rows must not.
	for _, row := range e8.Rows {
		stalled, _ := strconv.ParseFloat(row[2], 64)
		if strings.HasPrefix(row[0], "mutex") && stalled > 100 {
			t.Errorf("%s: stalled throughput %v should be ~0", row[0], stalled)
		}
		if strings.HasPrefix(row[0], "wait-free") && stalled == 0 {
			t.Errorf("%s: wait-free throughput collapsed", row[0])
		}
	}
}

func TestE12ConsensusSafety(t *testing.T) {
	tab := E12Consensus()
	for _, row := range tab.Rows {
		if row[2] != "0" || row[3] != "0" {
			t.Errorf("n=%s: safety violations reported: %v", row[0], row)
		}
		maxRounds, _ := strconv.Atoi(row[5])
		if maxRounds < 1 || maxRounds > 10 {
			t.Errorf("n=%s: max rounds %d outside sane range", row[0], maxRounds)
		}
	}
}

func TestE13RegisterCosts(t *testing.T) {
	tab := E13Registers()
	if len(tab.Rows) != 10 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Closed forms: SWSR 2/1; SWMR k/(2k-1); MRMW (n+1)/n; layered
	// 2k/(3k-2).
	want := [][2]string{
		{"2", "1"},
		{"2", "3"}, {"4", "7"}, {"8", "15"},
		{"3", "2"}, {"5", "4"}, {"9", "8"},
		{"4", "4"}, {"8", "10"}, {"16", "22"},
	}
	for i, row := range tab.Rows {
		if row[2] != want[i][0] || row[3] != want[i][1] {
			t.Errorf("row %d (%s %s): steps %s/%s, want %s/%s",
				i, row[0], row[1], row[2], row[3], want[i][0], want[i][1])
		}
	}
}

func TestE14NoViolations(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive experiment")
	}
	tab := E14Exhaustive()
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[4] != "0" {
			t.Errorf("%s: %s violations under exhaustive enumeration", row[0], row[4])
		}
		if schedules, _ := strconv.Atoi(row[2]); schedules < 900 {
			t.Errorf("%s: only %d schedules enumerated", row[0], schedules)
		}
	}
}

func TestE16CachedArmNeverRebuilds(t *testing.T) {
	if testing.Short() {
		t.Skip("timing experiment skipped in -short")
	}
	tab := E16LongHistory()
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		// The structural claim is exact and timer-independent: pure
		// reads on a quiescent object are Δ=0 extensions, never
		// rebuilds. The speedup itself is timing-dependent, so assert
		// only that caching doesn't lose.
		if row[4] != "0" {
			t.Errorf("h=%s: cached arm rebuilt %s times, want 0", row[0], row[4])
		}
		if speedup, err := strconv.ParseFloat(row[3], 64); err != nil || speedup <= 1 {
			t.Errorf("h=%s: speedup %s not > 1", row[0], row[3])
		}
	}
}

// TestE17AmortizationDecreases checks E17's structural claim without
// depending on wall-clock timing: shared accesses per logical
// operation fall strictly as offered concurrency grows past n,
// because batches grow with queue occupancy and the scan bill is per
// batch. The spans between the tested concurrency levels are 4× and
// 8×, so the strict inequality is robust to scheduling noise.
func TestE17AmortizationDecreases(t *testing.T) {
	const n = 4
	prev := -1.0
	for _, clients := range []int{n, 4 * n, 32 * n} {
		r := runServeLoad(n, clients, 0, 512/clients)
		if prev >= 0 && r.accessesOp >= prev {
			t.Fatalf("clients=%d: accesses/op %.3f did not fall below %.3f",
				clients, r.accessesOp, prev)
		}
		prev = r.accessesOp
	}
}

// TestE18BothSubstratesMeasured pins the timer-independent half of
// E18: the sim rows are deterministic for a fixed seed with a bounded
// tail (the model's wait-freedom made visible), and the native rows
// actually measured real operations (positive latencies, one per op).
func TestE18BothSubstratesMeasured(t *testing.T) {
	const n, opsPer, seed = 3, 40, 18
	inc := func(p, i int) spec.Inv { return types.Inc(1) }
	a := simLatencies(types.Counter{}, n, opsPer, inc, seed)
	b := simLatencies(types.Counter{}, n, opsPer, inc, seed)
	if len(a) != n*opsPer {
		t.Fatalf("sim produced %d latencies, want %d", len(a), n*opsPer)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sim latencies not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Wait-freedom in the model: the slowest op is within a small
	// constant of the median — no op's in-flight window can exceed
	// n concurrent ops' worth of serialized steps by much.
	p50, max := percentile(a, 0.50), percentile(a, 1)
	if p50 <= 0 || max > 4*p50 {
		t.Fatalf("sim distribution not tight: p50=%v max=%v", p50, max)
	}
	nat := nativeLatencies(types.Counter{}, n, opsPer, inc)
	if len(nat) != n*opsPer {
		t.Fatalf("native produced %d latencies, want %d", len(nat), n*opsPer)
	}
	for i, v := range nat {
		if v < 0 {
			t.Fatalf("native latency %d negative: %v", i, v)
		}
	}
}

func TestRegistryAndRendering(t *testing.T) {
	ids := IDs()
	if len(ids) != 20 || ids[0] != "e1" || ids[13] != "e14" || ids[14] != "e16" || ids[19] != "e22" {
		t.Fatalf("IDs = %v", ids)
	}
	if _, err := Run("nope"); err == nil {
		t.Error("unknown id accepted")
	}
	tab, err := Run("E5")
	if err != nil {
		t.Fatal(err)
	}
	if s := tab.String(); !strings.Contains(s, "E5") || !strings.Contains(s, "reads") {
		t.Error("String rendering incomplete")
	}
	if md := tab.Markdown(); !strings.Contains(md, "| n |") && !strings.Contains(md, "### E5") {
		t.Error("Markdown rendering incomplete")
	}
}

func TestE19TruncationBoundsRetained(t *testing.T) {
	tab := E19BoundedMemory()
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tab.Rows {
		ops, _ := strconv.Atoi(row[0])
		unbounded, _ := strconv.Atoi(row[1])
		truncated, _ := strconv.Atoi(row[3])
		epochs, _ := strconv.Atoi(row[5])
		if unbounded < ops/2 {
			t.Errorf("ops=%d: unbounded arm retained only %d entries; the baseline is vacuous", ops, unbounded)
		}
		if truncated*4 > unbounded {
			t.Errorf("ops=%d: truncated arm retained %d of %d entries; truncation is not bounding the graph", ops, truncated, unbounded)
		}
		if epochs == 0 {
			t.Errorf("ops=%d: no truncation epoch completed", ops)
		}
	}
}

// TestE22TenantIsolation gates the E22 isolation claim: under
// shed-lowest-priority admission a heavy-tailed low-priority flood is
// shed while the protected tenant's p99 stays within 2x of its
// unloaded p99 and at most a sliver (1%) of its own operations — two
// protected arrivals landing in the same pacing tick on the same
// depth-1 queue — are turned away. Wall-clock tails on a loaded
// single-CPU CI host are noisy, so the gate takes the best of a few
// attempts — the claim is that the isolated regime is reliably
// reachable, not that every single run lands in it.
func TestE22TenantIsolation(t *testing.T) {
	var last e22IsolationResult
	for attempt := 0; attempt < 5; attempt++ {
		iso := e22Isolation()
		last = iso
		if iso.bursty.Shed == 0 {
			continue // flood never overflowed the queue: no isolation to show
		}
		if iso.protected.Shed > e22IsoProtCount/100 {
			continue // a protected burst outran its own priority class
		}
		if iso.protected.P99 <= 2*iso.unloaded.P99 {
			return
		}
	}
	t.Fatalf("isolation not reached in 5 attempts: unloaded p99=%v attacked p99=%v (want <= 2x) protected shed=%d bursty shed=%d/%d",
		last.unloaded.P99, last.protected.P99, last.protected.Shed,
		last.bursty.Shed, last.bursty.Shed+last.bursty.Done)
}

// TestE20ShardFlatSimCounts pins the machine-independent half of the
// E20 scaling claim: the sim columns must sit at the single-shard
// closed forms 2(n²−1) reads and 2(n+1) writes per keyed op for every
// shard count in the sweep — sharding adds zero shared accesses to
// keyed traffic. The native speedup column is wall-clock: it is only
// asserted (weakly) on hosts with more than one CPU, since a single
// core time-slices the shards and legitimately flattens it.
//
// The run has a time limit of its own, e20Budget. The native arms take
// under a second on one CPU; where parallel publishers push the
// incremental linearizer (DESIGN decision 7) into repeated full
// rebuilds they outlast go test's default timeout, which would abort
// every later test in the package with this one.
func TestE20ShardFlatSimCounts(t *testing.T) {
	const e20Budget = 2 * time.Minute
	ctx, cancel := context.WithTimeout(context.Background(), e20Budget)
	defer cancel()
	tab, err := e20Sharding(ctx)
	if err != nil {
		t.Fatalf("E20 did not finish within %v (%d of 3 rows measured): %v", e20Budget, len(tab.Rows), err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(tab.Rows))
	}
	const n = 4 // must match E20Sharding's per-shard slot count
	wantReads := strconv.FormatFloat(2*float64(n*n-1), 'g', 4, 64)
	wantWrites := strconv.FormatFloat(2*float64(n+1), 'g', 4, 64)
	for _, row := range tab.Rows {
		if row[5] != wantReads || row[6] != wantWrites {
			t.Errorf("shards=%s: sim reads/writes per op = %s/%s, want %s/%s",
				row[0], row[5], row[6], wantReads, wantWrites)
		}
	}
	if runtime.NumCPU() > 1 {
		speedup, err := strconv.ParseFloat(tab.Rows[2][4], 64)
		if err != nil {
			t.Fatal(err)
		}
		if speedup < 1.0 {
			t.Errorf("4-shard speedup %v < 1 on a %d-CPU host", speedup, runtime.NumCPU())
		}
	}
}
