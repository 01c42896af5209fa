package snapshot

import (
	"sync/atomic"

	"repro/apram/obs"
	"repro/internal/lattice"
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

// dcCell is one process's register in the double-collect and Afek
// snapshots: a payload with a per-process sequence number, plus (for
// Afek) the view embedded at update time.
type dcCell struct {
	seq  uint64
	val  any
	view []any // Afek only
}

// DoubleCollect is the textbook "collect twice, retry until clean"
// snapshot. A clean double collect is linearizable, and updates are a
// single register write — but Scan is only LOCK-FREE, not wait-free:
// a continuously updating peer can starve it for ever. The simulator
// variant (DCScanMachine) demonstrates that starvation schedule
// deterministically; this native variant exposes a retry counter so
// benchmarks can show unbounded retries under contention.
type DoubleCollect struct {
	cells []atomic.Pointer[dcCell]
	// Retries counts collect-pair retries across all Scan calls.
	Retries atomic.Uint64
	// MaxRetries, when positive, bounds the retries of a single Scan;
	// exceeding it makes Scan return nil, which keeps benchmarks
	// finite. Zero means retry for ever (the true algorithm).
	MaxRetries uint64

	probe   obs.Probe
	emitOps bool
}

// NewDoubleCollect returns an n-element double-collect snapshot.
func NewDoubleCollect(n int) *DoubleCollect {
	dc := &DoubleCollect{cells: make([]atomic.Pointer[dcCell], n)}
	zero := &dcCell{}
	for i := range dc.cells {
		dc.cells[i].Store(zero)
	}
	return dc
}

// Instrument attaches a probe. Retries surface as obs.EvRetry events —
// the telemetry that distinguishes this merely lock-free Scan from the
// wait-free ones.
func (dc *DoubleCollect) Instrument(p obs.Probe, emitOps bool) {
	dc.probe = p
	dc.emitOps = emitOps && p != nil
}

// Update sets process p's element to v.
func (dc *DoubleCollect) Update(p int, v any) {
	if dc.emitOps {
		dc.probe.OpBegin(p, obs.OpScan)
	}
	old := dc.cells[p].Load()
	dc.cells[p].Store(&dcCell{seq: old.seq + 1, val: v})
	if dc.probe != nil {
		dc.probe.RegReads(p, 1)
		dc.probe.RegWrites(p, 1)
		if dc.emitOps {
			dc.probe.OpDone(p, obs.OpScan)
		}
	}
}

// Scan retries double collects until two consecutive collects agree.
// It returns nil if MaxRetries is positive and exceeded.
func (dc *DoubleCollect) Scan(p int) []any {
	if dc.emitOps {
		dc.probe.OpBegin(p, obs.OpScan)
	}
	done := func(reads int, out []any) []any {
		if dc.probe != nil {
			dc.probe.RegReads(p, reads)
			if dc.emitOps {
				dc.probe.OpDone(p, obs.OpScan)
			}
		}
		return out
	}
	a := dc.collect()
	reads := len(dc.cells)
	for tries := uint64(0); ; tries++ {
		b := dc.collect()
		reads += len(dc.cells)
		if sameSeqs(a, b) {
			return done(reads, cellValues(b))
		}
		dc.Retries.Add(1)
		if dc.probe != nil {
			dc.probe.Event(p, obs.EvRetry)
		}
		if dc.MaxRetries > 0 && tries >= dc.MaxRetries {
			return done(reads, nil)
		}
		a = b
	}
}

// N returns the array length.
func (dc *DoubleCollect) N() int { return len(dc.cells) }

func (dc *DoubleCollect) collect() []*dcCell {
	out := make([]*dcCell, len(dc.cells))
	for i := range dc.cells {
		out[i] = dc.cells[i].Load()
	}
	return out
}

func sameSeqs(a, b []*dcCell) bool {
	for i := range a {
		if a[i].seq != b[i].seq {
			return false
		}
	}
	return true
}

func cellValues(cs []*dcCell) []any {
	out := make([]any, len(cs))
	for i, c := range cs {
		if c.seq != 0 {
			out[i] = c.val
		}
	}
	return out
}

// Afek is the single-writer atomic snapshot of Afek, Attiya, Dolev,
// Gafni, Merritt and Shavit (cited in Section 2 as the independent
// contemporaneous construction "with time complexity comparable to
// ours"), in its unbounded-sequence-number form: an updater embeds a
// scan in its own register, and a scanner that sees the same process
// move twice borrows that embedded view instead of retrying for ever —
// which is what makes it wait-free, unlike DoubleCollect.
type Afek struct {
	cells []atomic.Pointer[dcCell]

	probe   obs.Probe
	emitOps bool
}

// NewAfek returns an n-element Afek et al. snapshot.
func NewAfek(n int) *Afek {
	a := &Afek{cells: make([]atomic.Pointer[dcCell], n)}
	zero := &dcCell{}
	for i := range a.cells {
		a.cells[i].Store(zero)
	}
	return a
}

// Instrument attaches a probe. A scanner borrowing an updater's
// embedded view surfaces as obs.EvHelp — the helping step that makes
// this snapshot wait-free where DoubleCollect is not.
func (a *Afek) Instrument(p obs.Probe, emitOps bool) {
	a.probe = p
	a.emitOps = emitOps && p != nil
}

// Update embeds a scan in the written register, making the write
// expensive but scans wait-free.
func (a *Afek) Update(p int, v any) {
	if a.emitOps {
		a.probe.OpBegin(p, obs.OpScan)
	}
	view := a.scan(p)
	old := a.cells[p].Load()
	a.cells[p].Store(&dcCell{seq: old.seq + 1, val: v, view: view})
	if a.probe != nil {
		a.probe.RegReads(p, 1)
		a.probe.RegWrites(p, 1)
		if a.emitOps {
			a.probe.OpDone(p, obs.OpScan)
		}
	}
}

// Scan returns an instantaneous view: either a clean double collect,
// or the view embedded by a process observed to move twice.
func (a *Afek) Scan(p int) []any {
	if a.emitOps {
		a.probe.OpBegin(p, obs.OpScan)
	}
	out := a.scan(p)
	if a.probe != nil && a.emitOps {
		a.probe.OpDone(p, obs.OpScan)
	}
	return out
}

// scan is Scan without the operation report, shared with Update (whose
// embedded scan is part of the update, not an operation of its own).
func (a *Afek) scan(p int) []any {
	moved := make(map[int]bool)
	prev := a.collect()
	reads := len(a.cells)
	done := func(out []any) []any {
		if a.probe != nil {
			a.probe.RegReads(p, reads)
		}
		return out
	}
	for {
		cur := a.collect()
		reads += len(a.cells)
		clean := true
		for q := range cur {
			if cur[q].seq == prev[q].seq {
				continue
			}
			clean = false
			if moved[q] {
				// q completed an entire Update inside this Scan, so
				// its embedded view was taken inside this Scan too.
				if a.probe != nil {
					a.probe.Event(p, obs.EvHelp)
				}
				return done(append([]any(nil), cur[q].view...))
			}
			moved[q] = true
		}
		if clean {
			return done(cellValues(cur))
		}
		if a.probe != nil {
			a.probe.Event(p, obs.EvRetry)
		}
		prev = cur
	}
}

// N returns the array length.
func (a *Afek) N() int { return len(a.cells) }

func (a *Afek) collect() []*dcCell {
	out := make([]*dcCell, len(a.cells))
	for i := range a.cells {
		out[i] = a.cells[i].Load()
	}
	return out
}
