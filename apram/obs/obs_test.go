package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

func TestStatsCountsAndAttribution(t *testing.T) {
	st := NewStats(2)
	st.RegReads(0, 3)
	st.RegWrites(0, 2)
	st.OpDone(0, OpScan) // 5 steps
	st.RegReads(0, 10)
	st.OpDone(0, OpScan) // 10 steps
	st.RegReads(1, 7)
	st.Event(1, EvRetry)
	st.Event(1, EvRetry)
	st.OpDone(1, OpCounterRead) // 7 steps

	if got := st.Reads(); got != 20 {
		t.Fatalf("Reads = %d, want 20", got)
	}
	if got := st.Writes(); got != 2 {
		t.Fatalf("Writes = %d, want 2", got)
	}
	if got := st.Ops(OpScan); got != 2 {
		t.Fatalf("Ops(scan) = %d, want 2", got)
	}
	if got := st.Events(EvRetry); got != 2 {
		t.Fatalf("Events(retry) = %d, want 2", got)
	}

	sum := st.Snapshot()
	if sum.Reads != 20 || sum.Writes != 2 {
		t.Fatalf("summary totals = %d/%d, want 20/2", sum.Reads, sum.Writes)
	}
	scan := sum.Ops[OpScan.String()]
	if scan.Count != 2 || scan.Steps != 15 {
		t.Fatalf("scan summary = %+v, want count 2 steps 15", scan)
	}
	if scan.MeanSteps != 7.5 {
		t.Fatalf("scan mean = %v, want 7.5", scan.MeanSteps)
	}
	// Per-slot sums reproduce the aggregate.
	var r, w uint64
	for _, ss := range sum.PerSlot {
		r += ss.Reads
		w += ss.Writes
	}
	if r != sum.Reads || w != sum.Writes {
		t.Fatalf("per-slot sums %d/%d != aggregate %d/%d", r, w, sum.Reads, sum.Writes)
	}
}

func TestMultiAndNop(t *testing.T) {
	a, b := NewStats(1), NewStats(1)
	m := Multi(nil, a, nil, b)
	m.RegReads(0, 4)
	m.RegWrites(0, 1)
	m.Event(0, EvHelp)
	m.OpDone(0, OpScan)
	for _, st := range []*Stats{a, b} {
		if st.Reads() != 4 || st.Writes() != 1 || st.Events(EvHelp) != 1 || st.Ops(OpScan) != 1 {
			t.Fatalf("fan-out missed a probe: %+v", st.Snapshot())
		}
	}
	if Multi() != Nop {
		t.Fatal("empty Multi should degenerate to Nop")
	}
	if Multi(nil, a) != Probe(a) {
		t.Fatal("single-probe Multi should return the probe itself")
	}
	// Nop absorbs everything without state.
	Nop.RegReads(99, 1)
	Nop.OpDone(-1, OpScan)
}

func TestTraceHook(t *testing.T) {
	var recs []Record
	tr := Trace(func(r Record) { recs = append(recs, r) })
	tr.RegReads(3, 5)
	tr.Event(3, EvRound)
	tr.OpDone(3, OpDecide)
	want := []Record{
		{Slot: 3, Kind: KindReads, N: 5},
		{Slot: 3, Kind: KindEvent, Event: EvRound},
		{Slot: 3, Kind: KindOp, Op: OpDecide},
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d", len(recs), len(want))
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, recs[i], want[i])
		}
	}
}

func TestConcurrentSlotsNoInterference(t *testing.T) {
	const n, per = 8, 10000
	st := NewStats(n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				st.RegReads(p, 2)
				st.RegWrites(p, 1)
				st.OpDone(p, OpScan)
			}
		}(p)
	}
	wg.Wait()
	sum := st.Snapshot()
	if sum.Reads != n*per*2 || sum.Writes != n*per {
		t.Fatalf("totals %d/%d, want %d/%d", sum.Reads, sum.Writes, n*per*2, n*per)
	}
	for _, ss := range sum.PerSlot {
		if ss.Reads != per*2 || ss.Writes != per || ss.Ops[OpScan.String()] != per {
			t.Fatalf("slot %d corrupted: %+v", ss.Slot, ss)
		}
	}
	if got := sum.Ops[OpScan.String()]; got.Steps != n*per*3 {
		t.Fatalf("attributed steps %d, want %d", got.Steps, n*per*3)
	}
}

func TestSummaryJSONStable(t *testing.T) {
	st := NewStats(1)
	st.RegReads(0, 3)
	st.OpDone(0, OpScan)
	raw, err := json.Marshal(st.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"slots", "reads", "writes", "ops", "per_slot"} {
		if _, ok := m[key]; !ok {
			t.Errorf("summary JSON missing %q: %s", key, raw)
		}
	}
}

func TestNamesAreStable(t *testing.T) {
	// The String identifiers are JSON schema: changing one breaks
	// downstream consumers of aprambench -json output.
	if OpScan.String() != "scan" || OpDecide.String() != "decide" {
		t.Fatal("op names changed")
	}
	if EvRetry.String() != "retry" || EvCoinFlip.String() != "coin-flip" {
		t.Fatal("event names changed")
	}
	seen := map[string]bool{}
	for op := Op(0); op < NumOps; op++ {
		if s := op.String(); s == "" || s == "op?" || seen[s] {
			t.Fatalf("op %d has bad or duplicate name %q", op, s)
		} else {
			seen[s] = true
		}
	}
	for e := Event(0); e < NumEvents; e++ {
		if s := e.String(); s == "" || s == "event?" || seen[s] {
			t.Fatalf("event %d has bad or duplicate name %q", e, s)
		} else {
			seen[s] = true
		}
	}
}
