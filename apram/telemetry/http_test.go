package telemetry

import (
	"encoding/json"
	"expvar"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestHandlerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.SetClock(func() uint64 { return 5 })
	r.Counter("serve.obj.ops").Add(4)
	r.Histogram("serve.obj.op_latency", 1).Record(0, 99)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	if !strings.Contains(string(body), "serve_obj_ops 4") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if !strings.Contains(string(body), `serve_obj_op_latency{quantile="0.99"} 99`) {
		t.Fatalf("/metrics missing summary quantile:\n%s", body)
	}

	resp, err = http.Get(ts.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s Sample
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Time != 5 || len(s.Counters) != 1 || len(s.Hists) != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Hists[0].P99 != 99 {
		t.Fatalf("snapshot histogram = %+v", s.Hists[0])
	}
}

func TestServeListener(t *testing.T) {
	r := NewRegistry()
	r.Counter("up").Add(1)
	addr, closer, err := r.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer closer()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "up 1") {
		t.Fatalf("scrape missing metric:\n%s", body)
	}
	if err := closer(); err != nil {
		t.Fatal(err)
	}
}

func TestPublishExpvar(t *testing.T) {
	r := NewRegistry()
	r.SetClock(func() uint64 { return 8 })
	r.Counter("reqs").Add(2)
	PublishExpvar("telemetry_test_registry", r)
	v := expvar.Get("telemetry_test_registry")
	if v == nil {
		t.Fatal("expvar variable not published")
	}
	var s Sample
	if err := json.Unmarshal([]byte(v.String()), &s); err != nil {
		t.Fatalf("expvar value %q: %v", v.String(), err)
	}
	if s.Time != 8 || len(s.Counters) != 1 || s.Counters[0].Value != 2 {
		t.Fatalf("expvar snapshot = %+v", s)
	}
	// Live: the next read re-snapshots.
	r.Counter("reqs").Add(1)
	if err := json.Unmarshal([]byte(v.String()), &s); err != nil {
		t.Fatal(err)
	}
	if s.Counters[0].Value != 3 {
		t.Fatalf("expvar not live: %+v", s)
	}
}
