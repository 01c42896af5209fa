package main

import (
	"math/bits"
	"sync/atomic"
)

// subBuckets is the number of linear sub-buckets per power of two: a
// recorded latency is resolved to within 1/64 of its value.
const (
	subBits    = 6
	subBuckets = 1 << subBits
	// histBuckets covers 0 to 2^40 ns (about 18 minutes).
	histBuckets = (40 - subBits + 1) * subBuckets
)

// hist is a fixed-size log-linear latency histogram that any number of
// goroutines may record into. The benchmark records every latency into
// one of these instead of keeping samples, so its own heap stays small
// and constant and does not change how often the program's garbage
// collector runs.
type hist struct {
	counts [histBuckets]atomic.Uint32
}

// bucketOf maps a value to its bucket; bucketRange is the inverse.
func bucketOf(v int64) int {
	if v < subBuckets {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - subBits - 1
	b := (e+1)*subBuckets + int(v>>e) - subBuckets
	if b >= histBuckets {
		return histBuckets - 1
	}
	return b
}

func bucketRange(b int) (lo, width float64) {
	if b < subBuckets {
		return float64(b), 1
	}
	e := b/subBuckets - 1
	m := b%subBuckets + subBuckets
	return float64(uint64(m) << e), float64(uint64(1) << e)
}

func (h *hist) add(ns int64) { h.counts[bucketOf(ns)].Add(1) }

// snapshot returns the bucket counts, for sending to another process.
func (h *hist) snapshot() []uint32 {
	c := make([]uint32, histBuckets)
	for i := range h.counts {
		c[i] = h.counts[i].Load()
	}
	return c
}

// merge adds bucket counts taken with snapshot.
func (h *hist) merge(c []uint32) {
	for i, n := range c {
		h.counts[i].Add(n)
	}
}

func (h *hist) count() uint64 {
	var n uint64
	for i := range h.counts {
		n += uint64(h.counts[i].Load())
	}
	return n
}

// quantile returns the q-quantile in nanoseconds, interpolating
// linearly by rank inside the bucket that holds it.
func (h *hist) quantile(q float64) float64 {
	n := h.count()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var seen float64
	for b := range h.counts {
		c := float64(h.counts[b].Load())
		if c > 0 && seen+c >= rank {
			lo, width := bucketRange(b)
			return lo + width*(rank-seen)/c
		}
		seen += c
	}
	lo, width := bucketRange(histBuckets - 1)
	return lo + width
}
