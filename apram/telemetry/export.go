package telemetry

import (
	"bufio"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
)

// This file holds the snapshot exporters. Everything is emitted by
// hand (fmt over sorted slices, never map iteration or reflective
// marshalling) so each byte stream is a pure function of the Sample —
// with a deterministic clock, identical runs export identical bytes.

// promName sanitizes a registry name into a Prometheus metric name:
// every byte outside [a-zA-Z0-9_:] becomes '_', and a leading digit
// gets an underscore prefix.
func promName(name string) string {
	out := make([]byte, 0, len(name)+1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			out = append(out, c)
		case c >= '0' && c <= '9':
			if i == 0 {
				out = append(out, '_')
			}
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// WritePrometheus writes the sample in the Prometheus text exposition
// format: counters and gauges as single samples, histograms as
// summaries (quantile series plus _sum, _count and a _max gauge).
// Names are sanitized with promName; output order is the sample's
// sorted order, so successive scrapes of a quiescent registry are
// byte-identical.
func WritePrometheus(w io.Writer, s Sample) error {
	bw := bufio.NewWriter(w)
	for _, c := range s.Counters {
		n := promName(c.Name)
		fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", n, n, c.Value)
	}
	for _, g := range s.Gauges {
		n := promName(g.Name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", n, n, g.Value)
	}
	for _, h := range s.Hists {
		n := promName(h.Name)
		fmt.Fprintf(bw, "# TYPE %s summary\n", n)
		fmt.Fprintf(bw, "%s{quantile=\"0.5\"} %d\n", n, h.P50)
		fmt.Fprintf(bw, "%s{quantile=\"0.99\"} %d\n", n, h.P99)
		fmt.Fprintf(bw, "%s{quantile=\"0.999\"} %d\n", n, h.P999)
		fmt.Fprintf(bw, "%s_sum %d\n", n, h.Sum)
		fmt.Fprintf(bw, "%s_count %d\n", n, h.Count)
		fmt.Fprintf(bw, "# TYPE %s_max gauge\n%s_max %d\n", n, n, h.Max)
	}
	return bw.Flush()
}

// jsonName renders a metric name as a JSON string literal. Names carry
// caller-chosen labels (tenants, object names), so Go's %q quoting,
// which is not JSON for control bytes or invalid UTF-8, will not do.
func jsonName(name string) []byte {
	b, _ := json.Marshal(name) // a string always marshals
	return b
}

// WriteJSONL appends the sample as one JSON line: the time-series
// format aprambench and the SLO gate archive. Emission is by hand over
// the sample's sorted sections, so the line is a pure function of the
// sample — byte-identical across runs when the clock is deterministic.
func WriteJSONL(w io.Writer, s Sample) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, `{"t":%d`, s.Time)
	if len(s.Counters) > 0 {
		bw.WriteString(`,"counters":{`)
		for i, c := range s.Counters {
			if i > 0 {
				bw.WriteByte(',')
			}
			fmt.Fprintf(bw, "%s:%d", jsonName(c.Name), c.Value)
		}
		bw.WriteByte('}')
	}
	if len(s.Gauges) > 0 {
		bw.WriteString(`,"gauges":{`)
		for i, g := range s.Gauges {
			if i > 0 {
				bw.WriteByte(',')
			}
			fmt.Fprintf(bw, "%s:%d", jsonName(g.Name), g.Value)
		}
		bw.WriteByte('}')
	}
	if len(s.Hists) > 0 {
		bw.WriteString(`,"hists":{`)
		for i, h := range s.Hists {
			if i > 0 {
				bw.WriteByte(',')
			}
			fmt.Fprintf(bw, `%s:{"count":%d,"sum":%d,"max":%d,"p50":%d,"p99":%d,"p999":%d}`,
				jsonName(h.Name), h.Count, h.Sum, h.Max, h.P50, h.P99, h.P999)
		}
		bw.WriteByte('}')
	}
	bw.WriteString("}\n")
	return bw.Flush()
}

// PublishExpvar publishes the registry as an expvar variable: every
// read of /debug/vars re-snapshots, so the exposed value is always
// live. It panics (through expvar) when the name is already published,
// exactly like expvar.Publish.
func PublishExpvar(name string, r *Registry) {
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot() }))
}
