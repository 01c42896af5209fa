package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/apram/telemetry"
)

// registryAddr serves a populated registry on a loopback listener and
// returns its address.
func registryAddr(t *testing.T) string {
	t.Helper()
	reg := telemetry.NewRegistry()
	reg.SetClock(func() uint64 { return 77 })
	reg.Counter("serve.obj.ops").Add(12)
	reg.GaugeFunc("serve.obj.queue_depth", func() uint64 { return 3 })
	h := reg.Histogram("serve.obj.op_latency", 1)
	h.Record(0, 1500)
	h.Record(0, 2500)
	reg.Histogram("serve.obj.batch_size", 1).Record(0, 4)
	addr, closer, err := reg.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closer() })
	return addr
}

// TestOnceRendersSnapshot drives the command end to end against a live
// endpoint: -once polls a single snapshot and renders all three
// sections with the right unit treatment.
func TestOnceRendersSnapshot(t *testing.T) {
	addr := registryAddr(t)
	var out, errw bytes.Buffer
	if code := run([]string{"-addr", addr, "-once"}, &out, &errw); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, errw.String())
	}
	got := out.String()
	for _, want := range []string{
		"t=77",
		"serve.obj.ops", "12",
		"serve.obj.queue_depth",
		"serve.obj.op_latency",
		"2.5µs",                // latency rendered as a duration
		"serve.obj.batch_size", // batch size rendered as a plain number
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "\x1b[2J") {
		t.Error("-once must not clear the screen")
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run(nil, &out, &errw); code != 2 {
		t.Fatalf("missing -addr: run = %d", code)
	}
	if !strings.Contains(errw.String(), "-addr is required") {
		t.Fatalf("stderr: %s", errw.String())
	}
	if code := run([]string{"-addr", "127.0.0.1:1", "-once"}, &out, &errw); code != 2 {
		t.Fatalf("unreachable endpoint: run = %d", code)
	}
}

// TestGaugeNoteFlagsTruncationLag: a nonzero trunc_lag_epochs gauge —
// serve- or shard-prefixed — carries the inline retention-backpressure
// flag; zero lag and ordinary gauges stay unadorned.
func TestGaugeNoteFlagsTruncationLag(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.SetClock(func() uint64 { return 1 })
	reg.GaugeFunc("serve.obj.trunc_lag_epochs", func() uint64 { return 2 })
	reg.GaugeFunc("shard.obj.trunc_lag_epochs", func() uint64 { return 0 })
	reg.GaugeFunc("serve.obj.queue_depth", func() uint64 { return 9 })
	var out bytes.Buffer
	render(&out, "x", reg.Snapshot())
	got := out.String()
	if n := strings.Count(got, "!! truncation lagging"); n != 1 {
		t.Fatalf("want exactly the nonzero lag gauge flagged, got %d flags:\n%s", n, got)
	}
	flagged := false
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, "serve.obj.trunc_lag_epochs") && strings.Contains(line, "lagging") {
			flagged = true
		}
	}
	if !flagged {
		t.Fatalf("serve.obj.trunc_lag_epochs=2 not flagged:\n%s", got)
	}
}

func TestHistVal(t *testing.T) {
	if got := histVal("serve.x.op_latency", 1500); got != "1.5µs" {
		t.Errorf("latency value = %q", got)
	}
	if got := histVal("serve.x.batch_size", 7); got != "7" {
		t.Errorf("batch size value = %q", got)
	}
}
