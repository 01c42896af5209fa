package benchjson

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/apram/obs"
)

// TestRunSnapshotMatchesPaper checks the counting pass against the
// Section 6.2 closed forms for the structures that have them.
func TestRunSnapshotMatchesPaper(t *testing.T) {
	rep, err := Run(Config{N: 4, Ops: 64, Structures: []string{"snapshot", "counter"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Structures) != 2 {
		t.Fatalf("got %d structures, want 2", len(rep.Structures))
	}
	for _, s := range rep.Structures {
		if s.ReadsPerOp != s.PaperReadsPerOp {
			t.Errorf("%s: reads/op = %v, paper predicts %v", s.Name, s.ReadsPerOp, s.PaperReadsPerOp)
		}
		if s.WritesPerOp != s.PaperWritesPerOp {
			t.Errorf("%s: writes/op = %v, paper predicts %v", s.Name, s.WritesPerOp, s.PaperWritesPerOp)
		}
		if s.NsPerOp <= 0 || s.OpsPerSec <= 0 {
			t.Errorf("%s: non-positive timing (ns/op=%v ops/sec=%v)", s.Name, s.NsPerOp, s.OpsPerSec)
		}
	}
}

// TestRunUnknownStructure checks that a typo'd name is an error, not a
// silent skip.
func TestRunUnknownStructure(t *testing.T) {
	if _, err := Run(Config{Structures: []string{"snapsot"}}); err == nil {
		t.Fatal("unknown structure name did not error")
	}
}

// TestReportSchemaStable pins the top-level and per-structure JSON key
// sets; a field rename is a schema break and must bump Schema.
func TestReportSchemaStable(t *testing.T) {
	rep, err := Run(Config{N: 3, Ops: 32, Structures: []string{"snapshot"}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "go_version", "n_slots", "ops_per_structure", "shards", "structures"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("top-level key %q missing", key)
		}
	}
	var schema string
	if err := json.Unmarshal(doc["schema"], &schema); err != nil || schema != Schema {
		t.Errorf("schema = %q, want %q", schema, Schema)
	}
	var structs []map[string]json.RawMessage
	if err := json.Unmarshal(doc["structures"], &structs); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"name", "n_slots", "ops", "shards", "ns_per_op", "ops_per_sec",
		"allocs_per_op", "reads_per_op", "writes_per_op", "events"} {
		if _, ok := structs[0][key]; !ok {
			t.Errorf("structure key %q missing", key)
		}
	}
	// v2 contract: the events map is complete — every obs.Event name,
	// zeros included — so reports always have comparable key sets.
	var events map[string]uint64
	if err := json.Unmarshal(structs[0]["events"], &events); err != nil {
		t.Fatal(err)
	}
	if len(events) != int(obs.NumEvents) {
		t.Errorf("events map has %d keys, want all %d event names", len(events), obs.NumEvents)
	}
	for e := obs.Event(0); e < obs.NumEvents; e++ {
		if _, ok := events[e.String()]; !ok {
			t.Errorf("events map missing %q", e)
		}
	}
}

// TestAllStructuresRun exercises every registered driver at a small
// size, so a new structure can't land without surviving both passes.
func TestAllStructuresRun(t *testing.T) {
	rep, err := Run(Config{N: 3, Ops: 24})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(rep.Structures), len(structures(0, 2)); got != want {
		t.Fatalf("ran %d rows, want %d (one per registered driver)", got, want)
	}
	for _, s := range rep.Structures {
		if s.ReadsPerOp <= 0 || s.WritesPerOp <= 0 {
			t.Errorf("%s/%s: counting pass saw no register traffic (reads=%v writes=%v)",
				s.Backend, s.Name, s.ReadsPerOp, s.WritesPerOp)
		}
		switch s.Backend {
		case BackendNative:
			if s.NsPerOp <= 0 {
				t.Errorf("%s/%s: native row without timing", s.Backend, s.Name)
			}
			if s.StepsPerOp != 0 {
				t.Errorf("%s/%s: native row carries steps/op %v", s.Backend, s.Name, s.StepsPerOp)
			}
		case BackendSim:
			if s.NsPerOp != 0 || s.OpsPerSec != 0 {
				t.Errorf("%s/%s: sim row carries wall-clock numbers (ns/op=%v)", s.Backend, s.Name, s.NsPerOp)
			}
			if s.StepsPerOp != s.ReadsPerOp+s.WritesPerOp {
				t.Errorf("%s/%s: steps/op %v != reads+writes %v", s.Backend, s.Name,
					s.StepsPerOp, s.ReadsPerOp+s.WritesPerOp)
			}
		default:
			t.Errorf("%s: unknown backend %q", s.Name, s.Backend)
		}
	}
}

// TestBackendFilter pins the Config.Backend axis: sim selects exactly
// the sim rows, native exactly the native ones, junk is an error.
func TestBackendFilter(t *testing.T) {
	rep, err := Run(Config{N: 3, Ops: 12, Backend: BackendSim})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Structures) == 0 {
		t.Fatal("no sim rows")
	}
	for _, s := range rep.Structures {
		if s.Backend != BackendSim {
			t.Errorf("backend filter leaked %s/%s", s.Backend, s.Name)
		}
	}
	if _, err := Run(Config{Backend: "quantum"}); err == nil {
		t.Fatal("unknown backend did not error")
	}
}

// TestSimCountsMatchPaper pins the sim rows' exact step accounting:
// the serialized substrate must reproduce the Figure 4 closed forms
// to the access.
func TestSimCountsMatchPaper(t *testing.T) {
	rep, err := Run(Config{N: 4, Ops: 32, Backend: BackendSim,
		Structures: []string{"uc-counter", "uc-gset"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Structures) != 2 {
		t.Fatalf("got %d rows, want 2", len(rep.Structures))
	}
	for _, s := range rep.Structures {
		if !s.Deterministic {
			t.Errorf("%s: sim sequential row not marked deterministic", s.Name)
		}
		if s.ReadsPerOp != s.PaperReadsPerOp || s.WritesPerOp != s.PaperWritesPerOp {
			t.Errorf("%s: reads/writes per op = %v/%v, paper predicts %v/%v",
				s.Name, s.ReadsPerOp, s.WritesPerOp, s.PaperReadsPerOp, s.PaperWritesPerOp)
		}
	}
}

// TestCompareGate exercises the baseline-comparison gate: identical
// reports pass, a beyond-tolerance ns/op regression fails, a
// within-tolerance slowdown passes, deterministic access-count drift
// always fails, and an empty workload keys like the literal "closed".
func TestCompareGate(t *testing.T) {
	base := &Report{
		Schema: Schema, NSlots: 8, OpsPerStructure: 2000,
		Structures: []Result{
			{Name: "object", Backend: BackendNative, Deterministic: true, NsPerOp: 1000, ReadsPerOp: 126, WritesPerOp: 18},
			{Name: "counter", Backend: BackendNative, Deterministic: true, NsPerOp: 500, ReadsPerOp: 126, WritesPerOp: 18},
			{Name: "uc-counter", Backend: BackendSim, Deterministic: true, StepsPerOp: 144, ReadsPerOp: 126, WritesPerOp: 18},
			{Name: "uc-counter", Backend: BackendNative, NsPerOp: 2000, ReadsPerOp: 130, WritesPerOp: 18},
		},
	}
	clone := func(mut func(r *Report)) *Report {
		var buf bytes.Buffer
		if err := base.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		cp, err := ReadJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		mut(cp)
		return cp
	}

	if got := Compare(base, clone(func(*Report) {}), 2, nil); len(got) != 0 {
		t.Fatalf("identical reports flagged: %v", got)
	}
	slow := clone(func(r *Report) { r.Structures[0].NsPerOp = 1900 })
	if got := Compare(base, slow, 2, []string{"object"}); len(got) != 0 {
		t.Fatalf("1.9x slowdown flagged at 2x tolerance: %v", got)
	}
	slower := clone(func(r *Report) { r.Structures[0].NsPerOp = 2100 })
	if got := Compare(base, slower, 2, []string{"object"}); len(got) != 1 {
		t.Fatalf("2.1x slowdown not flagged: %v", got)
	}
	drift := clone(func(r *Report) { r.Structures[0].ReadsPerOp = 127 })
	if got := Compare(base, drift, 2, []string{"object"}); len(got) != 1 {
		t.Fatalf("reads/op drift not flagged: %v", got)
	}
	// A name selects its rows on every backend, matched like-for-like:
	// drift in the sim row's deterministic counts is flagged even
	// though the native row of the same name moved too (it is exempt —
	// concurrent drive).
	dual := clone(func(r *Report) {
		r.Structures[2].ReadsPerOp = 127 // sim uc-counter: gated
		r.Structures[3].ReadsPerOp = 140 // native uc-counter: not deterministic
	})
	if got := Compare(base, dual, 2, []string{"uc-counter"}); len(got) != 1 ||
		!strings.Contains(got[0], "sim/uc-counter") {
		t.Fatalf("cross-backend gate wrong: %v", got)
	}
	// An explicit "closed" workload keys identically to the empty one.
	relabeled := clone(func(r *Report) {
		for i := range r.Structures {
			r.Structures[i].Workload = "closed"
		}
	})
	if got := Compare(base, relabeled, 2, nil); len(got) != 0 {
		t.Fatalf("explicit closed workload broke row matching: %v", got)
	}
	// Config mismatches refuse to compare rather than comparing junk.
	wrongN := clone(func(r *Report) { r.NSlots = 4 })
	if got := Compare(base, wrongN, 2, nil); len(got) != 1 {
		t.Fatalf("config mismatch not flagged: %v", got)
	}
	// Unknown structure selection is a finding, not a silent pass.
	if got := Compare(base, clone(func(*Report) {}), 2, []string{"nope"}); len(got) != 1 {
		t.Fatalf("unknown structure not flagged: %v", got)
	}
}

// TestReadJSONRejectsBadSchema pins the schema validation in ReadJSON.
func TestReadJSONRejectsBadSchema(t *testing.T) {
	if _, err := ReadJSON(bytes.NewReader([]byte(`{"schema":"other/v9"}`))); err == nil {
		t.Fatal("foreign schema accepted")
	}
	if _, err := ReadJSON(bytes.NewReader([]byte("{"))); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	// Superseded versions are rejected too: Compare reports a schema
	// mismatch against any of them, so reading one could never gate.
	for _, old := range []string{"apram-bench/v1", "apram-bench/v5"} {
		if _, err := ReadJSON(bytes.NewReader([]byte(`{"schema":"` + old + `"}`))); err == nil {
			t.Fatalf("superseded schema %s accepted", old)
		}
	}
	if _, err := ReadJSON(bytes.NewReader([]byte(`{"schema":"` + Schema + `"}`))); err != nil {
		t.Fatalf("current schema rejected: %v", err)
	}
}

// TestWorkloadRow pins the v6 axis: the serve-open row runs the
// open-loop engine, carries the workload label and the
// offered/goodput columns, and keys separately from closed-loop rows
// under Compare.
func TestWorkloadRow(t *testing.T) {
	rep, err := Run(Config{N: 3, Ops: 48, Structures: []string{"serve-open"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Structures) != 1 {
		t.Fatalf("got %d rows, want 1", len(rep.Structures))
	}
	s := rep.Structures[0]
	if s.Workload != "open-poisson-zipf" {
		t.Fatalf("workload = %q, want open-poisson-zipf", s.Workload)
	}
	if s.Backend != BackendNative || s.NsPerOp <= 0 {
		t.Fatalf("serve-open should be a timed native row: %+v", s)
	}
	if s.OfferedOpsPerSec != 20000 {
		t.Fatalf("offered = %v, want the configured 20000", s.OfferedOpsPerSec)
	}
	if s.GoodputOpsPerSec <= 0 {
		t.Fatalf("goodput = %v, want > 0", s.GoodputOpsPerSec)
	}
	if p99 := s.TenantP99Ns["load"]; p99 == 0 {
		t.Fatalf("tenant p99 map = %v, want a nonzero entry for tenant load", s.TenantP99Ns)
	}
	if s.ReadsPerOp <= 0 || s.WritesPerOp <= 0 {
		t.Fatalf("counting pass produced no register traffic: %+v", s)
	}
	// The workload label is part of the row key: an open-loop row never
	// gates against a closed-loop row of the same name.
	closed := *rep
	closed.Structures = []Result{s}
	closed.Structures[0].Workload = ""
	if got := Compare(&closed, rep, 2, nil); len(got) != 1 || !strings.Contains(got[0], "missing from current") {
		t.Fatalf("open vs closed rows compared as like-keyed: %v", got)
	}
}

// TestLatencyQuantiles pins the v5 columns: the serving-layer native
// rows carry ordered nonzero latency quantiles from the telemetry
// pass, and every other row omits them.
func TestLatencyQuantiles(t *testing.T) {
	rep, err := Run(Config{N: 3, Ops: 48, Structures: []string{"serve", "shard-counter", "snapshot"}})
	if err != nil {
		t.Fatal(err)
	}
	withLat := map[string]bool{}
	for _, s := range rep.Structures {
		key := s.Backend + "/" + s.Name
		if s.Backend == BackendNative && (s.Name == "serve" || s.Name == "shard-counter") {
			if s.P50Ns == 0 || s.P99Ns == 0 || s.P999Ns == 0 {
				t.Errorf("%s: missing latency quantiles (%d/%d/%d)", key, s.P50Ns, s.P99Ns, s.P999Ns)
			}
			if s.P99Ns < s.P50Ns || s.P999Ns < s.P99Ns {
				t.Errorf("%s: quantiles not monotone (%d/%d/%d)", key, s.P50Ns, s.P99Ns, s.P999Ns)
			}
			withLat[key] = true
			continue
		}
		if s.P50Ns != 0 || s.P99Ns != 0 || s.P999Ns != 0 {
			t.Errorf("%s: unexpected latency quantiles on a non-serving or sim row", key)
		}
	}
	if len(withLat) != 2 {
		t.Fatalf("latency rows = %v, want native serve and shard-counter", withLat)
	}
}

// TestShardRows pins the shard-counter rows: the native row times the
// real sharded server, and the sim row's sequential keyed drive must
// hit the single-shard closed forms exactly — 2(n²−1) reads and
// 2(n+1) writes per op, i.e. one scan-update pair on the routed shard
// plus zero extra shared accesses for routing. Flatness across S is
// the per-op half of the scaling claim: sharding must not add shared
// traffic to keyed operations.
func TestShardRows(t *testing.T) {
	perShardSteps := map[int]float64{}
	for _, shards := range []int{1, 2, 4} {
		rep, err := Run(Config{N: 4, Ops: 32, Shards: shards, Structures: []string{"shard-counter"}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Shards != shards {
			t.Fatalf("report shards = %d, want %d", rep.Shards, shards)
		}
		if len(rep.Structures) != 2 {
			t.Fatalf("got %d rows, want native+sim", len(rep.Structures))
		}
		for _, s := range rep.Structures {
			if s.Shards != shards {
				t.Errorf("%s/%s: row shards = %d, want %d", s.Backend, s.Name, s.Shards, shards)
			}
			switch s.Backend {
			case BackendNative:
				if s.NsPerOp <= 0 {
					t.Errorf("S=%d native row without timing", shards)
				}
			case BackendSim:
				if !s.Deterministic {
					t.Errorf("S=%d sim shard row not deterministic", shards)
				}
				if s.ReadsPerOp != s.PaperReadsPerOp || s.WritesPerOp != s.PaperWritesPerOp {
					t.Errorf("S=%d sim row reads/writes = %v/%v, closed form predicts %v/%v",
						shards, s.ReadsPerOp, s.WritesPerOp, s.PaperReadsPerOp, s.PaperWritesPerOp)
				}
				perShardSteps[shards] = s.StepsPerOp
			}
		}
	}
	if perShardSteps[1] <= 0 {
		t.Fatal("no sim steps recorded")
	}
	if perShardSteps[2] != perShardSteps[1] || perShardSteps[4] != perShardSteps[1] {
		t.Errorf("per-op shared accesses not flat in S: %v", perShardSteps)
	}
}

// TestTraceWriter checks the Config.Trace hook: one Chrome process per
// structure, loadable trace-event JSON, and a report identical in
// shape to an untraced run.
func TestTraceWriter(t *testing.T) {
	var buf bytes.Buffer
	rep, err := Run(Config{N: 3, Ops: 24, Structures: []string{"snapshot", "counter"}, Trace: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Structures) != 2 {
		t.Fatalf("got %d structures, want 2", len(rep.Structures))
	}
	out := buf.String()
	for _, want := range []string{"traceEvents", `"snapshot"`, `"counter"`, `"ph":"X"`, `"pid":0`, `"pid":1`} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace missing %q (len %d)", want, len(out))
		}
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
}
