package telemetry

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestHistBucketLayout pins the log-linear bucket geometry: every
// value lands in a valid bucket whose upper bound covers it, bucket
// indices are monotone in the value, and above the exact range the
// bucket width stays within 1/histSubCount of the value (the ~3%
// relative-error bound the quantiles inherit).
func TestHistBucketLayout(t *testing.T) {
	vals := []uint64{0, 1, histSubCount - 1, histSubCount, histSubCount + 1,
		100, 1000, 1 << 20, 1<<40 + 12345, 1<<63 - 1, 1 << 63, ^uint64(0)}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		vals = append(vals, rng.Uint64()>>(rng.Intn(64)))
	}
	for _, v := range vals {
		b := histBucket(v)
		if b < 0 || b >= HistBuckets {
			t.Fatalf("histBucket(%d) = %d out of [0,%d)", v, b, HistBuckets)
		}
		up := histUpper(b)
		if v > up {
			t.Fatalf("value %d above its bucket %d's upper bound %d", v, b, up)
		}
		if b > 0 && histUpper(b-1) >= v {
			t.Fatalf("value %d already covered by bucket %d (upper %d)", v, b-1, histUpper(b-1))
		}
		if v >= histSubCount {
			// Bucket width ≤ v/histSubCount: upper bound overstates the
			// value by at most ~3%.
			if up-v > v/histSubCount {
				t.Fatalf("bucket %d overstates %d by %d (> %d)", b, v, up-v, v/histSubCount)
			}
		} else if up != v {
			t.Fatalf("exact range: histUpper(histBucket(%d)) = %d", v, up)
		}
	}
	// Adjacent buckets tile: upper(i)+1 belongs to bucket i+1.
	for i := 0; i < HistBuckets-1; i++ {
		up := histUpper(i)
		if up == ^uint64(0) {
			break
		}
		if got := histBucket(up + 1); got != i+1 {
			t.Fatalf("histBucket(histUpper(%d)+1) = %d, want %d", i, got, i+1)
		}
	}
}

// TestHistogramQuantiles records a known distribution and checks the
// headline quantiles against the true order statistics within the
// bucket-geometry error bound.
func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram("lat", 4)
	var all []uint64
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 40000; i++ {
		v := uint64(rng.ExpFloat64() * 5000) // long-tailed, like latency
		all = append(all, v)
		h.Record(i%4, v)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	s := h.Snapshot()
	if s.Count != uint64(len(all)) {
		t.Fatalf("count %d, want %d", s.Count, len(all))
	}
	if s.Max != all[len(all)-1] {
		t.Fatalf("max %d, want %d", s.Max, all[len(all)-1])
	}
	for _, tc := range []struct {
		q    float64
		got  uint64
		name string
	}{{0.5, s.P50, "p50"}, {0.99, s.P99, "p99"}, {0.999, s.P999, "p999"}} {
		true_ := all[int(tc.q*float64(len(all)))-1]
		// The estimate is an upper bound within one bucket width.
		if tc.got < true_ {
			t.Errorf("%s = %d understates true order statistic %d", tc.name, tc.got, true_)
		}
		if tc.got > true_+true_/histSubCount+1 {
			t.Errorf("%s = %d overstates true order statistic %d beyond the bucket bound", tc.name, tc.got, true_)
		}
	}
	if m := s.Mean(); m <= 0 {
		t.Errorf("mean = %v, want positive", m)
	}
}

// TestHistogramRecordAllocs pins the acceptance criterion: the record
// path performs zero allocations.
func TestHistogramRecordAllocs(t *testing.T) {
	h := NewHistogram("lat", 2)
	v := uint64(17)
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(1, v)
		v += 997
	}); n != 0 {
		t.Fatalf("Record allocates %.1f objects/op, want 0", n)
	}
}

// TestHistogramConcurrentSnapshot stresses the lock-free contract
// under the race detector: every slot records from its own goroutine
// while a reader snapshots continuously; the final quiescent snapshot
// accounts for every sample.
func TestHistogramConcurrentSnapshot(t *testing.T) {
	const slots, per = 8, 20000
	h := NewHistogram("lat", slots)
	stop := make(chan struct{})
	var rd sync.WaitGroup
	rd.Add(1)
	go func() {
		defer rd.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				if s.Count > slots*per {
					t.Error("snapshot count exceeds recorded samples")
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for p := 0; p < slots; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(p, uint64(p*1000+i))
			}
		}(p)
	}
	wg.Wait()
	close(stop)
	rd.Wait()
	s := h.Snapshot()
	if s.Count != slots*per {
		t.Fatalf("final count %d, want %d", s.Count, slots*per)
	}
	var sumBuckets uint64
	for _, c := range s.buckets {
		sumBuckets += c
	}
	if sumBuckets != s.Count {
		t.Fatalf("bucket total %d != count %d", sumBuckets, s.Count)
	}
}

// TestRegistrySnapshot pins the deterministic sample shape: sections
// sorted by name regardless of registration order, get-or-create
// identity.
func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.SetClock(func() uint64 { return 42 })
	r.Counter("z.ops").Add(3)
	r.Counter("a.ops").Add(1)
	if r.Counter("z.ops") != r.Counter("z.ops") {
		t.Fatal("Counter get-or-create returned distinct objects")
	}
	r.GaugeFunc("m.depth", func() uint64 { return 7 })
	r.GaugeFunc("b.live", func() uint64 { return 11 })
	r.Histogram("h.lat", 2).Record(0, 5)
	if r.Histogram("h.lat", 2) != r.Histogram("h.lat", 1) {
		t.Fatal("Histogram get-or-create returned distinct objects")
	}
	s := r.Snapshot()
	if s.Time != 42 {
		t.Fatalf("sample time %d, want 42", s.Time)
	}
	wantC := []string{"a.ops", "z.ops"}
	for i, c := range s.Counters {
		if c.Name != wantC[i] {
			t.Fatalf("counters not sorted: %v", s.Counters)
		}
	}
	wantG := []string{"b.live", "m.depth"}
	for i, g := range s.Gauges {
		if g.Name != wantG[i] {
			t.Fatalf("gauges not sorted: %v", s.Gauges)
		}
	}
	if len(s.Hists) != 1 || s.Hists[0].Count != 1 {
		t.Fatalf("hists = %v", s.Hists)
	}
}

func TestRegistryHistogramSlotMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Histogram("h", 2)
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with more slots did not panic")
		}
	}()
	r.Histogram("h", 4)
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"serve.counter#1.op_latency": "serve_counter_1_op_latency",
		"9lives":                     "_9lives",
		"ok_name:sub":                "ok_name:sub",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWritePrometheus pins the exposition format against a golden
// string — the exporter's byte-determinism is the contract.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.SetClock(func() uint64 { return 1 })
	r.Counter("serve.x.ops").Add(9)
	r.GaugeFunc("serve.x.queue_depth", func() uint64 { return 2 })
	h := r.Histogram("serve.x.op_latency", 1)
	h.Record(0, 10)
	h.Record(0, 20)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE serve_x_ops counter
serve_x_ops 9
# TYPE serve_x_queue_depth gauge
serve_x_queue_depth 2
# TYPE serve_x_op_latency summary
serve_x_op_latency{quantile="0.5"} 10
serve_x_op_latency{quantile="0.99"} 20
serve_x_op_latency{quantile="0.999"} 20
serve_x_op_latency_sum 30
serve_x_op_latency_count 2
# TYPE serve_x_op_latency_max gauge
serve_x_op_latency_max 20
`
	if buf.String() != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestWriteJSONL checks the line is valid JSON, carries every section,
// and is byte-identical across two identically-driven registries —
// the determinism the sim backend's step clock relies on.
func TestWriteJSONL(t *testing.T) {
	build := func() *Registry {
		tick := uint64(0)
		r := NewRegistry()
		r.SetClock(func() uint64 { tick += 3; return tick })
		r.Counter("c").Add(5)
		r.GaugeFunc("g", func() uint64 { return 6 })
		r.Histogram("h", 2).Record(1, 100)
		return r
	}
	var a, b bytes.Buffer
	if err := WriteJSONL(&a, build().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&b, build().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("identical registries exported different bytes:\n%s\n%s", a.String(), b.String())
	}
	line := a.String()
	if !strings.HasSuffix(line, "\n") || strings.Count(line, "\n") != 1 {
		t.Fatalf("not a single line: %q", line)
	}
	var doc map[string]any
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON %q: %v", line, err)
	}
	for _, k := range []string{"t", "counters", "gauges", "hists"} {
		if _, ok := doc[k]; !ok {
			t.Errorf("line missing %q: %s", k, line)
		}
	}
}

// TestWriteJSONLEscapesNames: metric names carry caller-chosen labels
// (an apramload tenant becomes serve.<name>.<tenant>.*), so the line
// must stay valid JSON for names with control bytes or invalid UTF-8,
// and decode back to the same names (invalid bytes as U+FFFD, the
// encoding/json convention).
func TestWriteJSONLEscapesNames(t *testing.T) {
	r := NewRegistry()
	r.SetClock(func() uint64 { return 1 })
	r.Counter("a\vb").Add(1)
	r.GaugeFunc("t\x01", func() uint64 { return 2 })
	r.Histogram("\xff", 1).Record(0, 3)
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Counters map[string]uint64         `json:"counters"`
		Gauges   map[string]uint64         `json:"gauges"`
		Hists    map[string]map[string]any `json:"hists"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON %q: %v", buf.String(), err)
	}
	if doc.Counters["a\vb"] != 1 || doc.Gauges["t\x01"] != 2 || doc.Hists["\ufffd"] == nil {
		t.Fatalf("names did not round-trip: %+v", doc)
	}
}

func TestSLOCheck(t *testing.T) {
	h := NewHistogram("serve.x.op_latency", 1)
	for i := 0; i < 1000; i++ {
		h.Record(0, uint64(1000+i))
	}
	snap := h.Snapshot()
	if f := CheckSLO(snap, SLO{Name: "serve.x.op_latency", P99Ns: 1 << 40, P999Ns: 1 << 40}); len(f) != 0 {
		t.Fatalf("generous bounds produced findings: %v", f)
	}
	f := CheckSLO(snap, SLO{Name: "serve.x.op_latency", P99Ns: 1, P999Ns: 1})
	if len(f) != 2 {
		t.Fatalf("tightened bounds produced %d findings, want 2: %v", len(f), f)
	}
	if !strings.Contains(f[0], "p99") || !strings.Contains(f[0], "committed") {
		t.Fatalf("finding lacks the benchstat-style shape: %q", f[0])
	}
	// A zero bound disables its check.
	if f := CheckSLO(snap, SLO{Name: "x", P99Ns: 0, P999Ns: 1}); len(f) != 1 {
		t.Fatalf("zero p99 bound should disable that check: %v", f)
	}
}

func TestSLOBaselineRoundTrip(t *testing.T) {
	doc := `{"schema":"apram-slo/v1","slos":[{"name":"serve.gate.op_latency","p99_ns":100,"p999_ns":200}]}`
	b, err := ReadSLOBaseline(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	slo, ok := b.Find("serve.gate.op_latency")
	if !ok || slo.P99Ns != 100 || slo.P999Ns != 200 {
		t.Fatalf("Find = %+v, %v", slo, ok)
	}
	if _, ok := b.Find("missing"); ok {
		t.Fatal("Find reported a missing objective")
	}
	if _, err := ReadSLOBaseline(strings.NewReader(`{"schema":"apram-slo/v0"}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
}
