package apram_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/apram"
	"repro/apram/obs"
)

// driveTruncSpans runs a truncation-enabled simulated counter with a
// flight recorder attached and returns the recorded span timeline.
// The drive is sequential round-robin, so both the schedule and the
// recorder's tick clock are deterministic.
func driveTruncSpans(t *testing.T) []obs.Span {
	t.Helper()
	const n, ops = 3, 120
	step := uint64(0)
	rec := apram.NewRecorder(n, obs.WithClock(func() uint64 { step++; return step }))
	obj := apram.NewObject(apram.CounterSpec{}, n,
		apram.WithProbe(rec),
		apram.WithBackend(apram.Simulated(nil)),
		apram.WithTruncateEvery(8))
	if !obj.TruncationEnabled() {
		t.Fatal("counter should truncate")
	}
	for i := 0; i < ops; i++ {
		obj.Execute(i%n, apram.Inc(1))
	}
	if st := obj.TruncStats(); st.Epochs == 0 {
		t.Fatalf("no epochs completed: %+v", st)
	}
	return rec.Spans()
}

// TestTruncationEpochSpans: every slot's participation in a
// truncation epoch is recorded as a balanced trunc-epoch begin/end
// pair — begin at the slot's ack, end at its fold — and the edges
// never disturb the enclosing operations' access deltas.
func TestTruncationEpochSpans(t *testing.T) {
	spans := driveTruncSpans(t)
	open := map[int]int{}
	pairs := 0
	for _, sp := range spans {
		if sp.Op != obs.OpTruncEpoch {
			continue
		}
		switch sp.Kind {
		case obs.SpanBegin:
			open[sp.Slot]++
		case obs.SpanEnd:
			if open[sp.Slot] == 0 {
				t.Fatalf("slot %d: trunc-epoch end without open begin at t=%d", sp.Slot, sp.Time)
			}
			open[sp.Slot]--
			pairs++
			if sp.Reads != 0 || sp.Writes != 0 {
				t.Fatalf("trunc-epoch end carries access deltas %d/%d — the coordinator performs no shared accesses", sp.Reads, sp.Writes)
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no trunc-epoch spans recorded")
	}
	for slot, n := range open {
		if n != 0 {
			t.Errorf("slot %d left %d trunc-epoch spans open", slot, n)
		}
	}
}

// TestTruncationEpochSpansDeterministic: two identical sequential sim
// runs export byte-identical span JSONL, epochs included — the
// flight-recorder determinism guarantee extends to the new interval
// kind.
func TestTruncationEpochSpansDeterministic(t *testing.T) {
	export := func() string {
		var buf bytes.Buffer
		if err := obs.WriteSpansJSONL(&buf, driveTruncSpans(t)); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := export(), export()
	if a != b {
		t.Fatal("identical runs exported different span streams")
	}
	if !strings.Contains(a, `"op":"trunc-epoch"`) {
		t.Fatal("export carries no trunc-epoch spans")
	}
}

// TestTruncationEpochChromeInterval: the Chrome-trace exporter renders
// a trunc-epoch pair as one complete "X" event even though its edges
// fall inside different operation turns (the interval overlaps, not
// nests within, the op spans around it).
func TestTruncationEpochChromeInterval(t *testing.T) {
	spans := driveTruncSpans(t)
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, obs.ChromeProcess{Pid: 1, Name: "trunc", Spans: spans}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	var complete int
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, `"ph":"X"`) && strings.Contains(line, `"name":"trunc-epoch"`) {
			complete++
		}
	}
	if complete == 0 {
		t.Fatalf("no complete trunc-epoch interval in the trace:\n%s", out)
	}
	// The exporter must also still pair the ordinary op spans around
	// the epochs.
	if !strings.Contains(out, `"name":"execute"`) && !strings.Contains(out, `"name":"scan"`) {
		t.Fatalf("op spans missing from the trace:\n%s", out)
	}
}
