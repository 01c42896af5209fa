package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"time"

	"repro/apram/obs"
)

const (
	// retainedEvery is how often the traced run samples Retained(). The
	// sample reads the slots' linearizers while their workers run,
	// exactly as the telemetry registry's retained_entries gauge does;
	// the program does not synchronize that read.
	retainedEvery = time.Millisecond
	// maxSpanRate sizes the traced run's span buffers: spans per second
	// per buffer. A buffer that fills up fails the run rather than drop
	// spans.
	maxSpanRate = 100_000
)

// spanCap is the span buffer size for a server measuring n windows.
func spanCap(n int) int { return (n + 1) * maxSpanRate * int(windowLen/time.Second) }

// tracer switches the traced run's instruments on for the timed phase:
// the probe, a CPU profile, and a sampler of the objects' retained
// entry counts.
type tracer struct {
	pr  *probe
	sys *system
	buf bytes.Buffer

	profile  []byte
	retained int
	stop     chan struct{}
	done     chan struct{}
}

func (t *tracer) begin() {
	// The profile error only means another profile is running, which
	// nothing in this program starts; an empty profile then shows as
	// zero CPU in every layer.
	_ = pprof.StartCPUProfile(&t.buf)
	t.stop, t.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(t.done)
		tick := time.NewTicker(retainedEvery)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				for _, o := range t.sys.objs {
					if r := o.Retained(); r > t.retained {
						t.retained = r
					}
				}
			}
		}
	}()
	t.pr.on.Store(true)
}

func (t *tracer) end() {
	t.pr.on.Store(false)
	close(t.stop)
	<-t.done
	pprof.StopCPUProfile()
	t.profile = t.buf.Bytes()
}

// traceRun is one traced server's per-layer material; the parent adds
// the servers' up.
type traceRun struct {
	// Histogram bucket counts: request spans by kind, each request's
	// wait, batch turns and executes.
	Keyed, Cross, Waits, Turns, Execs []uint32
	// Executes that rebuilt their linearization and those that
	// extended it: summed nanoseconds and counts.
	RebuildNs, Rebuilds, ExtendNs, Extends int64
	// Probe counts over the measured windows.
	BatchOps, Flushes, Publishes, Reads, Writes uint64
	// CrossOps counts the server's vsums, warm-up and check included.
	CrossOps int64
	Counters counters
	Retained int
	// CPU is the server's CPU profile charged to layers, nanoseconds.
	CPU map[string]int64
}

// counters are the server's public counters over its whole life.
type counters struct {
	Extensions, Rebuilds          uint64 // LinStats, all slots
	Epochs, Lagging               uint64 // TruncStats
	Sheds                         uint64
	Optimistic, Retried, Quiesced uint64 // CrossStats
}

// read reads a closed server's counters.
func (c *counters) read(sys *system) {
	for _, o := range sys.objs {
		for p := 0; p < o.N(); p++ {
			ls := o.LinStats(p)
			c.Extensions += ls.Extensions
			c.Rebuilds += ls.Rebuilds
		}
		ts := o.TruncStats()
		c.Epochs += ts.Epochs
		c.Lagging += ts.LaggingEpochs
	}
	c.Sheds = sys.sheds()
	if sys.cross != nil {
		c.Optimistic, c.Retried, c.Quiesced = sys.cross()
	}
}

// summarize reduces a traced server's spans, probe records and counters
// to its traceRun. The server must have closed.
func summarize(s *spec, sys *system, pr *probe, cs []*client, cross int64, t *tracer) (*traceRun, error) {
	tr := &traceRun{CrossOps: cross, Retained: t.retained}
	tr.Counters.read(sys)
	// A server that measures no windows (runs shorter than one second
	// per server) never starts its profile.
	if len(t.profile) > 0 {
		var err error
		if tr.CPU, err = cpuByLayer(t.profile); err != nil {
			return nil, err
		}
	}
	for _, c := range cs {
		if len(c.spans) == cap(c.spans) {
			return nil, fmt.Errorf("request span buffer full; raise maxSpanRate")
		}
	}
	var keyed, crossH, waits, turns, execs hist
	bySlot := make([][]interval, len(pr.slots))
	for i := range pr.slots {
		st := &pr.slots[i]
		if len(st.batches) == cap(st.batches) || len(st.execs) == cap(st.execs) || len(st.epochs) == cap(st.epochs) {
			return nil, fmt.Errorf("slot %d span buffer full; raise maxSpanRate", i)
		}
		bySlot[i] = st.batches
		for _, b := range st.batches {
			turns.add(b.end - b.start)
		}
		for _, e := range st.execs {
			d := e.end - e.start
			execs.add(d)
			if e.rebuilt {
				tr.RebuildNs += d
				tr.Rebuilds++
			} else {
				tr.ExtendNs += d
				tr.Extends++
			}
		}
		tr.BatchOps += st.batchOps
		tr.Flushes += st.flush
		tr.Publishes += st.events[obs.EvPublish]
		tr.Reads += st.reads
		tr.Writes += st.writes
	}
	for _, c := range cs {
		for _, sp := range c.spans {
			switch {
			case sp.kind == vsumKind:
				crossH.add(sp.end - sp.start)
				continue
			case s.keyed():
				keyed.add(sp.end - sp.start)
			}
			// A request's wait is its span minus the batch turn that
			// resolved it.
			if b, ok := resolvingTurn(bySlot, sp); ok {
				waits.add((sp.end - sp.start) - (min(b.end, sp.end) - b.start))
			}
		}
	}
	tr.Keyed, tr.Cross, tr.Waits = keyed.snapshot(), crossH.snapshot(), waits.snapshot()
	tr.Turns, tr.Execs = turns.snapshot(), execs.snapshot()
	return tr, nil
}

// resolvingTurn finds the batch turn that resolved a request: a turn
// begins after the request was sent (composition precedes the turn),
// and its fan-out wakes the client, so on each slot the candidate is
// the last turn begun before the client woke; across slots the one
// ending closest to the wake-up wins.
func resolvingTurn(bySlot [][]interval, sp span) (interval, bool) {
	var best interval
	bestGap := int64(-1)
	for _, bs := range bySlot {
		i := sort.Search(len(bs), func(i int) bool { return bs[i].start > sp.end }) - 1
		if i < 0 || bs[i].start < sp.start {
			continue
		}
		gap := bs[i].end - sp.end
		if gap < 0 {
			gap = -gap
		}
		if bestGap < 0 || gap < bestGap {
			best, bestGap = bs[i], gap
		}
	}
	return best, bestGap >= 0
}

// perLayer computes the per-layer metrics from the traced phase's
// servers. plainCPU is the untraced phase's cpu_ms_per_kop, the base
// of the tracing overhead.
func (ph *phase) perLayer(plainCPU float64) map[string]metric {
	var ops, gcs float64
	var cpu []float64
	for _, w := range ph.windows() {
		ops += w.Ops
		gcs += w.GCs
		if w.Ops > 0 {
			cpu = append(cpu, w.CPU/(w.Ops/1000))
		}
	}
	var t traceRun
	var c counters
	var keyed, cross, waits, turns, execs hist
	byLayer := map[string]int64{}
	for _, r := range ph.runs {
		tr := r.Trace
		keyed.merge(tr.Keyed)
		cross.merge(tr.Cross)
		waits.merge(tr.Waits)
		turns.merge(tr.Turns)
		execs.merge(tr.Execs)
		t.RebuildNs += tr.RebuildNs
		t.Rebuilds += tr.Rebuilds
		t.ExtendNs += tr.ExtendNs
		t.Extends += tr.Extends
		t.BatchOps += tr.BatchOps
		t.Flushes += tr.Flushes
		t.Publishes += tr.Publishes
		t.Reads += tr.Reads
		t.Writes += tr.Writes
		t.CrossOps += tr.CrossOps
		t.Retained = max(t.Retained, tr.Retained)
		c.Extensions += tr.Counters.Extensions
		c.Rebuilds += tr.Counters.Rebuilds
		c.Epochs += tr.Counters.Epochs
		c.Lagging += tr.Counters.Lagging
		c.Sheds += tr.Counters.Sheds
		c.Optimistic += tr.Counters.Optimistic
		c.Retried += tr.Counters.Retried
		c.Quiesced += tr.Counters.Quiesced
		for l, ns := range tr.CPU {
			byLayer[l] += ns
		}
	}
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	perOp := func(x float64) float64 { return ratio(x, ops) }
	q := func(h *hist, p float64) float64 { return h.quantile(p) / 1e3 }

	// shard: request spans by kind, and CrossStats per cross-shard
	// operation over the servers' lives. The unsharded workloads have
	// neither, so these read 0 there.
	put("shard.keyed_p99_us", q(&keyed, 0.99), "us")
	put("shard.cross_p99_us", q(&cross, 0.99), "us")
	crossOps := float64(t.CrossOps)
	put("shard.optimistic_ratio", ratio(float64(c.Optimistic), crossOps), "ratio")
	put("shard.retries_per_cross", ratio(float64(c.Retried), crossOps), "count")
	put("shard.quiesce_ratio", ratio(float64(c.Quiesced), crossOps), "ratio")

	// serve: each request's wait and the batch turns, from the probe.
	put("serve.wait_p50_us", q(&waits, 0.50), "us")
	put("serve.wait_p99_us", q(&waits, 0.99), "us")
	put("serve.turn_p50_us", q(&turns, 0.50), "us")
	put("serve.turn_p99_us", q(&turns, 0.99), "us")
	put("serve.batch_size_mean", ratio(float64(t.BatchOps), float64(t.Flushes)), "count")
	put("serve.shed_ratio", ratio(float64(c.Sheds), float64(ph.attempted)), "ratio")

	// core: execute spans, linearizer and truncation counters.
	put("core.execute_p50_us", q(&execs, 0.50), "us")
	put("core.execute_p99_us", q(&execs, 0.99), "us")
	put("core.rebuild_execute_mean_us", ratio(us(t.RebuildNs), float64(t.Rebuilds)), "us")
	put("core.extend_execute_mean_us", ratio(us(t.ExtendNs), float64(t.Extends)), "us")
	put("core.publish_ratio", ratio(float64(t.Publishes), float64(t.Rebuilds+t.Extends)), "ratio")
	put("core.rebuild_ratio", ratio(float64(c.Rebuilds), float64(c.Extensions+c.Rebuilds)), "ratio")
	put("core.retained_max", float64(t.Retained), "count")
	put("core.trunc_epochs_per_kop", ratio(float64(c.Epochs), float64(ph.attempted)/1000), "count")
	put("core.trunc_lagging_epochs", float64(c.Lagging), "count")

	// snapshot: register accesses per completed operation.
	put("snapshot.reads_per_op", perOp(float64(t.Reads)), "count")
	put("snapshot.writes_per_op", perOp(float64(t.Writes)), "count")

	// CPU per layer from the profiles.
	for _, l := range layerNames {
		put(l+".cpu_us_per_op", perOp(float64(byLayer[l]))/1e3, "us")
	}
	put("runtime.gc_cycles_per_kop", ratio(gcs, ops/1000), "count")

	// Diagnostics.
	put("host.steal_pct", ph.steal(), "%")
	put("trace.overhead_pct", 100*(median(cpu)-plainCPU)/plainCPU, "%")
	return m
}

// writeTrace writes server n's request, batch, execute and epoch spans
// as gzipped JSON lines, and its CPU profile next to them.
func writeTrace(dir, name string, seed int64, n int, cs []*client, pr *probe, profile []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	stem := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := os.WriteFile(fmt.Sprintf("%s-cpu%d.pprof", stem, n), profile, 0o644); err != nil {
		return err
	}
	f, err := os.Create(fmt.Sprintf("%s-spans%d.jsonl.gz", stem, n))
	if err != nil {
		return err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	id := 0
	for ci, c := range cs {
		for _, sp := range c.spans {
			fmt.Fprintf(bw, `{"span":"request","id":%d,"client":%d,"op":%q,"start_ns":%d,"end_ns":%d}`+"\n", id, ci, opKinds[sp.kind], sp.start, sp.end)
			id++
		}
	}
	for slot := range pr.slots {
		st := &pr.slots[slot]
		for _, b := range st.batches {
			fmt.Fprintf(bw, `{"span":"batch","slot":%d,"start_ns":%d,"end_ns":%d}`+"\n", slot, b.start, b.end)
		}
		for _, e := range st.execs {
			fmt.Fprintf(bw, `{"span":"execute","slot":%d,"start_ns":%d,"end_ns":%d,"rebuild":%t}`+"\n", slot, e.start, e.end, e.rebuilt)
		}
		for _, e := range st.epochs {
			fmt.Fprintf(bw, `{"span":"trunc_epoch","slot":%d,"start_ns":%d,"end_ns":%d}`+"\n", slot, e.start, e.end)
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
