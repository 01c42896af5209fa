package snapshot

import (
	"sync/atomic"

	"repro/apram/obs"
	"repro/internal/lattice"
	"repro/internal/pram/native"
)

// ArraySnapshot is the classic atomic-snapshot abstraction: an
// n-element array in which process p writes element p, with a Scan
// that returns an instantaneous view of the whole array. All four
// implementations in this package (Array, Lock, DoubleCollect, Afek)
// satisfy it, which is what makes the Section 2 comparison benchmarks
// apples-to-apples.
//
// As everywhere in this repository, a process index must be used by at
// most one goroutine at a time.
type ArraySnapshot interface {
	// Update sets process p's element to v.
	Update(p int, v any)
	// Scan returns an instantaneous view of the array; element q is
	// nil if process q has never written.
	Scan(p int) []any
	// N returns the array length.
	N() int
}

// Array is the paper's own array snapshot, built at the end of
// Section 6: the semilattice scan over the tagged-vector lattice,
// where process p publishes element p by contributing a single-cell
// vector with a fresh tag.
type Array struct {
	snap *Snapshot
	vl   lattice.Vector
	tag  []uint64 // per-process tag counter, owned by that process
}

// NewArray returns an n-element atomic array snapshot backed by the
// wait-free semilattice scan.
func NewArray(n int) *Array {
	vl := lattice.Vector{N: n}
	return &Array{snap: New(n, vl), vl: vl, tag: make([]uint64, n)}
}

// Instrument attaches a probe (see Snapshot.Instrument).
func (a *Array) Instrument(p obs.Probe, emitOps bool) { a.snap.Instrument(p, emitOps) }

// Update publishes v as process p's element.
func (a *Array) Update(p int, v any) {
	a.tag[p]++
	a.snap.Scan(p, a.vl.Single(p, a.tag[p], v))
}

// Scan returns an instantaneous view of the array.
func (a *Array) Scan(p int) []any {
	vec := a.snap.ReadMax(p).(lattice.Vec)
	return vecValues(vec)
}

// N returns the array length.
func (a *Array) N() int { return a.snap.N() }

func vecValues(vec lattice.Vec) []any {
	out := make([]any, len(vec))
	for i, c := range vec {
		if c.Tag != 0 {
			out[i] = c.Val
		}
	}
	return out
}

// DoubleCollect is the textbook "collect twice, retry until clean"
// snapshot. A clean double collect is linearizable, and updates are a
// single register write — but Scan is only LOCK-FREE, not wait-free:
// a continuously updating peer can starve it for ever. Each process
// steps its DCScanMachine and DCUpdateMachine on atomic registers; in
// the simulator the same machines play the starvation schedule
// deterministically, and here a retry counter lets benchmarks show
// unbounded retries under contention.
type DoubleCollect struct {
	runner
	scanners []*DCScanMachine
	updaters []*DCUpdateMachine
	// Retries counts collect-pair retries across all Scan calls.
	Retries atomic.Uint64
	// MaxRetries, when positive, bounds the retries of a single Scan;
	// exceeding it makes Scan return nil, which keeps benchmarks
	// finite. Zero means retry for ever (the true algorithm).
	MaxRetries uint64
}

// NewDoubleCollect returns an n-element double-collect snapshot.
func NewDoubleCollect(n int) *DoubleCollect {
	lay := DCLayout{N: n}
	dc := &DoubleCollect{
		runner:   runner{mem: native.NewMem(n, n)},
		scanners: make([]*DCScanMachine, n),
		updaters: make([]*DCUpdateMachine, n),
	}
	lay.Install(dc.mem)
	for p := range dc.scanners {
		dc.scanners[p] = &DCScanMachine{collector: newCollector(p, lay)}
		dc.updaters[p] = NewDCUpdateMachine(p, lay, nil)
	}
	return dc
}

// Instrument attaches a probe. Retries surface as obs.EvRetry events —
// the telemetry that distinguishes this merely lock-free Scan from the
// wait-free ones.
func (dc *DoubleCollect) Instrument(p obs.Probe, emitOps bool) {
	dc.instrument(p, emitOps)
	for _, mc := range dc.scanners {
		mc.Instrument(p)
	}
}

// Update sets process p's element to v.
func (dc *DoubleCollect) Update(p int, v any) {
	reads, writes := dc.begin(p)
	mc := dc.updaters[p]
	mc.Enqueue(v)
	for !mc.Done() {
		mc.Step(dc.mem)
	}
	dc.end(p, reads, writes)
}

// Scan retries double collects until two consecutive collects agree.
// It returns nil if MaxRetries is positive and exceeded.
func (dc *DoubleCollect) Scan(p int) []any {
	reads, writes := dc.begin(p)
	mc := dc.scanners[p]
	mc.Enqueue()
	start := mc.Retries()
	for !mc.Done() {
		mc.Step(dc.mem)
		if dc.MaxRetries > 0 && uint64(mc.Retries()-start) > dc.MaxRetries {
			mc.finish(nil)
		}
	}
	dc.Retries.Add(uint64(mc.Retries() - start))
	dc.end(p, reads, writes)
	return mc.Result()
}

// N returns the array length.
func (dc *DoubleCollect) N() int { return len(dc.scanners) }

// Afek is the single-writer atomic snapshot of Afek, Attiya, Dolev,
// Gafni, Merritt and Shavit (cited in Section 2 as the independent
// contemporaneous construction "with time complexity comparable to
// ours"), in its unbounded-sequence-number form: an updater embeds a
// scan in its own register, and a scanner that sees the same process
// move twice borrows that embedded view instead of retrying for ever —
// which is what makes it wait-free, unlike DoubleCollect. Each process
// steps its AfekScanMachine and AfekUpdateMachine on atomic registers.
type Afek struct {
	runner
	scanners []*AfekScanMachine
	updaters []*AfekUpdateMachine
}

// NewAfek returns an n-element Afek et al. snapshot.
func NewAfek(n int) *Afek {
	lay := AfekLayout{N: n}
	a := &Afek{
		runner:   runner{mem: native.NewMem(n, n)},
		scanners: make([]*AfekScanMachine, n),
		updaters: make([]*AfekUpdateMachine, n),
	}
	lay.Install(a.mem)
	for p := range a.scanners {
		a.scanners[p] = newAfekScanMachine(p, lay)
		a.updaters[p] = NewAfekUpdateMachine(p, lay, nil)
	}
	return a
}

// Instrument attaches a probe. A scanner borrowing an updater's
// embedded view surfaces as obs.EvHelp — the helping step that makes
// this snapshot wait-free where DoubleCollect is not.
func (a *Afek) Instrument(p obs.Probe, emitOps bool) {
	a.instrument(p, emitOps)
	for q := range a.scanners {
		a.scanners[q].Instrument(p)
		a.updaters[q].Instrument(p)
	}
}

// Update embeds a scan in the written register, making the write
// expensive but scans wait-free.
func (a *Afek) Update(p int, v any) {
	reads, writes := a.begin(p)
	mc := a.updaters[p]
	mc.Enqueue(v)
	for !mc.Done() {
		mc.Step(a.mem)
	}
	a.end(p, reads, writes)
}

// Scan returns an instantaneous view: either a clean double collect,
// or the view embedded by a process observed to move twice.
func (a *Afek) Scan(p int) []any {
	reads, writes := a.begin(p)
	mc := a.scanners[p]
	mc.Enqueue()
	for !mc.Done() {
		mc.Step(a.mem)
	}
	a.end(p, reads, writes)
	return mc.Result()
}

// N returns the array length.
func (a *Afek) N() int { return len(a.scanners) }
