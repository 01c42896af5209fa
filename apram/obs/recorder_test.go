package obs

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
)

func TestRecorderSpansAndDeltas(t *testing.T) {
	var step uint64
	rec := NewRecorder(2, WithClock(func() uint64 { step++; return step }))

	rec.OpBegin(0, OpScan)
	rec.RegReads(0, 5)
	rec.Event(0, EvRetry)
	rec.RegReads(0, 5)
	rec.RegWrites(0, 2)
	rec.OpDone(0, OpScan)
	rec.OpBegin(1, OpCounterAdd)
	rec.RegWrites(1, 1)
	rec.OpDone(1, OpCounterAdd)

	spans := rec.Spans()
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	// Register callbacks do not occupy ring records; timestamps count
	// records only.
	wantTimes := []uint64{1, 2, 3, 4, 5}
	for i, sp := range spans {
		if sp.Time != wantTimes[i] {
			t.Fatalf("span %d time = %d, want %d", i, sp.Time, wantTimes[i])
		}
	}
	end := spans[2]
	if end.Kind != SpanEnd || end.Op != OpScan || end.Reads != 10 || end.Writes != 2 {
		t.Fatalf("scan end span wrong: %+v", end)
	}
	if ev := spans[1]; ev.Kind != SpanEvent || ev.Event != EvRetry {
		t.Fatalf("event span wrong: %+v", ev)
	}
	if end := spans[4]; end.Reads != 0 || end.Writes != 1 {
		t.Fatalf("counter end span wrong: %+v", end)
	}
}

func TestRecorderDeltaWithoutBegin(t *testing.T) {
	rec := NewRecorder(1)
	rec.RegReads(0, 3)
	rec.OpDone(0, OpScan)
	rec.RegReads(0, 4)
	rec.OpDone(0, OpScan)
	spans := rec.Spans()
	if len(spans) != 2 || spans[0].Reads != 3 || spans[1].Reads != 4 {
		t.Fatalf("OpDone-only attribution wrong: %+v", spans)
	}
}

func TestRecorderOverwriteAndDropped(t *testing.T) {
	rec := NewRecorder(1, WithSpanCapacity(8))
	if rec.Capacity() != 8 {
		t.Fatalf("capacity = %d, want 8", rec.Capacity())
	}
	for i := 0; i < 20; i++ {
		rec.Event(0, EvRetry)
	}
	if got := rec.Dropped(0); got != 12 {
		t.Fatalf("Dropped = %d, want 12", got)
	}
	// One fewer than capacity survives once the ring has lapped: the
	// reader must discard the oldest cell because a concurrent writer
	// could be mid-overwrite of it (seq h shares a cell with seq h-cap,
	// and head is bumped only after the store).
	spans := rec.SlotSpans(0)
	if len(spans) != 7 {
		t.Fatalf("got %d surviving spans, want 7", len(spans))
	}
	// The survivors are exactly the newest records, in order.
	for i, sp := range spans {
		if want := uint64(13 + i); sp.Seq != want {
			t.Fatalf("span %d seq = %d, want %d", i, sp.Seq, want)
		}
	}
}

func TestRecorderCapacityRounding(t *testing.T) {
	if got := NewRecorder(1, WithSpanCapacity(9)).Capacity(); got != 16 {
		t.Fatalf("capacity 9 rounded to %d, want 16", got)
	}
	if got := NewRecorder(1, WithSpanCapacity(0)).Capacity(); got != 8 {
		t.Fatalf("capacity 0 rounded to %d, want 8", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewRecorder(0) did not panic")
		}
	}()
	NewRecorder(0)
}

// TestRecorderHotPathAllocationFree pins the overhead contract: after
// construction, recording allocates nothing.
func TestRecorderHotPathAllocationFree(t *testing.T) {
	rec := NewRecorder(1, WithSpanCapacity(64))
	if got := testing.AllocsPerRun(100, func() {
		rec.OpBegin(0, OpScan)
		rec.RegReads(0, 7)
		rec.RegWrites(0, 1)
		rec.Event(0, EvRetry)
		rec.OpDone(0, OpScan)
	}); got != 0 {
		t.Fatalf("recorder hot path allocates %v per op, want 0", got)
	}
}

// TestRecorderConcurrentExport drives every slot from its own goroutine
// while a reader repeatedly exports — the race detector must stay
// quiet, and every decoded span must be structurally valid.
func TestRecorderConcurrentExport(t *testing.T) {
	const n, opsPer = 4, 2000
	rec := NewRecorder(n, WithSpanCapacity(32)) // tiny ring: force lapping
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				rec.OpBegin(p, OpScan)
				rec.RegReads(p, 3)
				rec.Event(p, EvRetry)
				rec.OpDone(p, OpScan)
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		for _, sp := range rec.Spans() {
			if sp.Kind >= NumSpanKinds {
				t.Fatalf("torn record decoded: %+v", sp)
			}
			if sp.Kind == SpanEnd && (sp.Reads != 3 || sp.Writes != 0) {
				t.Fatalf("end span with impossible deltas: %+v", sp)
			}
		}
	}
	for p := 0; p < n; p++ {
		ss := rec.SlotSpans(p)
		for i := 1; i < len(ss); i++ {
			if ss[i].Seq != ss[i-1].Seq+1 {
				t.Fatalf("slot %d spans not contiguous at %d: %d -> %d", p, i, ss[i-1].Seq, ss[i].Seq)
			}
		}
	}
}

func TestSpansJSONLRoundTrip(t *testing.T) {
	var step uint64
	rec := NewRecorder(3, WithClock(func() uint64 { step++; return step }))
	rec.OpBegin(0, OpExecute)
	rec.Event(0, EvHelp)
	rec.RegReads(0, 2)
	rec.RegWrites(0, 2)
	rec.OpDone(0, OpExecute)
	rec.OpBegin(2, OpAgree)
	spans := rec.Spans()
	spans[0].Name = "enq" // refined label must survive the round trip
	spans[2].Name = "enq"

	var buf bytes.Buffer
	if err := WriteSpansJSONL(&buf, spans); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpansJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spans) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, spans)
	}
}

// TestOpBeginForwarding pins how the begin edge flows through the probe
// combinators: Multi forwards it to every member, Trace surfaces it as
// a KindBegin record, the nop probe swallows it, and OpBegin on Stats
// (which counts only the cost model) is a no-op rather than a panic.
func TestOpBeginForwarding(t *testing.T) {
	rec := NewRecorder(1)
	st := NewStats(1)
	var traced []Record
	tr := Trace(func(r Record) { traced = append(traced, r) })

	m := Multi(st, rec, tr)
	m.OpBegin(0, OpScan)
	m.OpDone(0, OpScan)

	if got := rec.Spans(); len(got) != 2 || got[0].Kind != SpanBegin {
		t.Fatalf("recorder missed the begin edge: %+v", got)
	}
	if st.Ops(OpScan) != 1 {
		t.Fatal("stats missed the completion")
	}
	if len(traced) != 2 || traced[0].Kind != KindBegin || traced[0].Op != OpScan {
		t.Fatalf("trace missed the begin edge: %+v", traced)
	}
	if KindBegin.String() != "begin" {
		t.Fatalf("KindBegin renders %q", KindBegin)
	}
	Nop.OpBegin(0, OpScan) // must not panic
	st.OpBegin(0, OpScan)  // Stats ignores span edges: no-op
	if st.Ops(OpScan) != 1 {
		t.Fatal("Begin on Stats changed counters")
	}
}

func TestSummarizeSpansAttribution(t *testing.T) {
	var step uint64
	rec := NewRecorder(1, WithClock(func() uint64 { step++; return step }))
	rec.Event(0, EvHelp) // outside any op: dropped from summaries
	rec.OpBegin(0, OpScan)
	rec.RegReads(0, 8)
	rec.Event(0, EvRetry)
	rec.OpDone(0, OpScan)
	rec.OpBegin(0, OpScan)
	rec.RegReads(0, 4)
	rec.RegWrites(0, 2)
	rec.OpDone(0, OpScan)

	sums := SummarizeSpans(rec.Spans())
	if len(sums) != 1 {
		t.Fatalf("got %d summaries, want 1: %+v", len(sums), sums)
	}
	s := sums[0]
	if s.Name != "scan" || s.Count != 2 || s.Reads != 12 || s.Writes != 2 ||
		s.Steps != 14 || s.MinSteps != 6 || s.MaxSteps != 8 {
		t.Fatalf("summary wrong: %+v", s)
	}
	if s.Events["retry"] != 1 || len(s.Events) != 1 {
		t.Fatalf("event attribution wrong: %+v", s.Events)
	}
}
