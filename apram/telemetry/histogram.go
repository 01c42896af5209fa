// Package telemetry is the live metrics pipeline over the wait-free
// structures: a lock-free histogram, a registry of named metrics the
// serving layers feed, and snapshot exporters (Prometheus text
// exposition, expvar, byte-deterministic JSONL time series).
//
// It is the half of the observability plane that owns distributions,
// levels and clocks: latency and batch-size histograms, pull-style
// gauges (GaugeFunc) and the sample clock (Registry.SetClock). Package
// obs keeps the other half, the counts the paper's cost model charges
// and the span edges.
//
// The design constraint is the same one package obs states: nothing on
// a recording path may block, or the telemetry revokes the very
// guarantee the data structures exist to provide. Histogram follows
// obs.Stats' discipline — one cache-line-separated block of atomic
// counters per process slot, written only by the slot's own goroutine,
// merged by a read-only sweep at snapshot time — so recording a sample
// is a handful of uncontended atomic adds with no allocation, and an
// exporter scraping concurrently never makes a recorder wait.
//
// Timestamps come from the registry's clock: wall-clock nanoseconds
// (obs.MonotonicClock) by default, or, once the serving layers call
// SetClock on the simulated backend, its deterministic step counter,
// which makes an exported JSONL series a pure function of the
// schedule — the same determinism guarantee obs.Recorder gives for
// span traces.
package telemetry

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// The histogram's bucket layout is log-linear: values below
// histSubCount land in their own exact bucket; above that, each
// power-of-two octave is split into histSubCount linear sub-buckets,
// so a bucket's width is at most 1/histSubCount of its value — the
// relative quantile error is bounded by ~3% at every magnitude, from
// nanoseconds to minutes, out of a fixed 1920-bucket table.
const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits

	// HistBuckets is the fixed bucket count covering all of uint64.
	HistBuckets = (64 - histSubBits + 1) * histSubCount
)

// histBucket maps a value to its bucket index.
func histBucket(v uint64) int {
	if v < histSubCount {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1
	return (e+1)*histSubCount + int(v>>uint(e)) - histSubCount
}

// histUpper returns the largest value bucket i covers — the bound
// quantiles report, so an estimated percentile never understates the
// measured tail.
func histUpper(i int) uint64 {
	if i < histSubCount {
		return uint64(i)
	}
	e := i/histSubCount - 1
	m := uint64(i % histSubCount)
	return (histSubCount+m+1)<<uint(e) - 1
}

// histSlot is one process slot's bucket block. Only the slot's own
// goroutine records into it — the probe layer's single-writer
// discipline — so the adds never contend; the atomics exist for the
// concurrent snapshot sweep and the race detector. max in particular
// is a plain load-compare-store, sound only under that discipline.
type histSlot struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	buckets [HistBuckets]atomic.Uint64

	_ [64]byte // keep the next slot's header off this block's tail
}

// Histogram is the lock-free, allocation-free latency histogram: one
// log-bucketed block per process slot, merged at read time. Record is
// wait-free; Snapshot is a read-only sweep safe to run concurrently
// with recording. The zero value is unusable; call NewHistogram.
type Histogram struct {
	name  string
	slots []histSlot
}

// NewHistogram returns a histogram for recorders on n process slots.
func NewHistogram(name string, n int) *Histogram {
	if n <= 0 {
		panic("telemetry: histogram needs at least one slot")
	}
	return &Histogram{name: name, slots: make([]histSlot, n)}
}

// Name returns the histogram's registry name.
func (h *Histogram) Name() string { return h.name }

// Slots returns the number of recording slots.
func (h *Histogram) Slots() int { return len(h.slots) }

// Record adds one sample from the given slot. It is wait-free and
// allocation-free: three uncontended atomic adds and a slot-owned max
// update. Slots outside [0,n) panic, mirroring obs.Stats.
func (h *Histogram) Record(slot int, v uint64) {
	if slot < 0 || slot >= len(h.slots) {
		panic(fmt.Sprintf("telemetry: slot %d out of range [0,%d)", slot, len(h.slots)))
	}
	sl := &h.slots[slot]
	sl.buckets[histBucket(v)].Add(1)
	sl.count.Add(1)
	sl.sum.Add(v)
	if v > sl.max.Load() {
		sl.max.Store(v)
	}
}

// HistSnapshot is a merged point-in-time view of a Histogram. Like an
// obs.Summary it is exact when the slots are quiescent and may split
// an in-flight sample otherwise — the price of lock-free aggregation.
type HistSnapshot struct {
	// Count and Sum total the recorded samples; Max is the largest.
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	Max   uint64 `json:"max"`
	// P50, P99 and P999 are upper-bound quantile estimates from the
	// log-linear buckets (within ~3% of the true order statistic).
	P50  uint64 `json:"p50"`
	P99  uint64 `json:"p99"`
	P999 uint64 `json:"p999"`

	buckets [HistBuckets]uint64
}

// Snapshot merges every slot's buckets and computes the headline
// quantiles. Read-only and safe concurrently with Record.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.slots {
		sl := &h.slots[i]
		s.Count += sl.count.Load()
		s.Sum += sl.sum.Load()
		if m := sl.max.Load(); m > s.Max {
			s.Max = m
		}
		for b := range sl.buckets {
			s.buckets[b] += sl.buckets[b].Load()
		}
	}
	s.P50 = s.Quantile(0.5)
	s.P99 = s.Quantile(0.99)
	s.P999 = s.Quantile(0.999)
	return s
}

// Quantile returns an upper bound on the q-quantile (0 < q ≤ 1) of the
// merged samples: the covering bucket's largest value, so the estimate
// never understates the measured tail. Zero when the histogram is
// empty.
func (s HistSnapshot) Quantile(q float64) uint64 {
	if s.Count == 0 {
		return 0
	}
	// Nearest-rank with ceiling: the q-quantile is the ⌈q·N⌉-th order
	// statistic, so a two-sample p99 is the larger sample, not the
	// smaller — truncating here would understate the tail.
	fr := q * float64(s.Count)
	rank := uint64(fr)
	if float64(rank) < fr {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for i, c := range s.buckets {
		cum += c
		if cum >= rank {
			return histUpper(i)
		}
	}
	return s.Max
}

// Mean returns Sum/Count (0 when empty).
func (s HistSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}
