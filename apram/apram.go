// Package apram is the public API of this repository: wait-free data
// structures for the asynchronous PRAM model, after Aspnes & Herlihy,
// "Wait-Free Data Structures in the Asynchronous PRAM Model" (SPAA
// 1990).
//
// Everything here is built from atomic registers only — no locks, no
// compare-and-swap — and every operation is wait-free: it completes in
// a bounded number of the calling goroutine's own steps no matter what
// other goroutines do, including stopping for ever. The cost of that
// guarantee is the paper's O(n²) synchronization overhead per
// operation, where n is the number of declared process slots.
//
// # Process slots
//
// Every object is created for a fixed number n of process slots. A
// slot may be used by at most one goroutine at a time (slots own their
// registers — the single-writer discipline of the model); distinct
// slots run fully concurrently. Typical use assigns one slot per
// worker goroutine.
//
// # What you can build
//
//   - Snapshot: an atomic scan over any ∨-semilattice (Section 6).
//   - ArraySnapshot: the classic single-writer array snapshot.
//   - Agreement: wait-free approximate agreement (Section 4).
//   - Object: the universal construction for any sequential type
//     satisfying Property 1 — pairs of operations commute or overwrite
//     (Section 5).
//   - Counter, Clock: type-specific optimized wait-free objects.
//
// # What you cannot build
//
// Types that solve two-process consensus — queues, stacks, test&set,
// compare&swap — have no deterministic wait-free implementation from
// registers (the paper's Section 1, citing Herlihy's impossibility
// results). NewCheckedObject detects such types by their algebra and
// refuses them.
//
// # Options and observability
//
// Every constructor accepts trailing functional options — WithProbe,
// WithSeed, WithName — while keeping its positional form unchanged.
// WithProbe attaches an observability probe (package repro/apram/obs)
// that receives exact per-slot register read/write counts, structural
// events, and per-operation step attribution, wired through every
// layer of the object:
//
//	st := apram.NewStats(n)
//	s := apram.NewSnapshot(n, apram.MaxInt{}, apram.WithProbe(st))
//	s.Scan(0, apram.MaxInt{}.Bottom())
//	sum := st.Snapshot() // sum.Reads == n²−1, sum.Writes == n+1
//
// The probe path is itself wait-free, and without a probe the
// overhead is one predictable branch per operation. For adversarial
// simulation of register algorithms (schedulers, crash injection,
// exhaustive exploration), see the sibling package repro/apram/sim.
package apram

import (
	"repro/internal/agreement"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/pram"
	"repro/internal/snapshot"
	"repro/internal/spec"
	"repro/internal/types"
)

// Lattice is a ∨-semilattice with a bottom element; see the concrete
// lattices MaxInt, MaxFloat, SetUnion, MapMax, Product and Vector.
type Lattice = lattice.Lattice

// Ready-made lattices.
type (
	// MaxInt is int64 under max, with a distinct bottom.
	MaxInt = lattice.MaxInt
	// MaxFloat is float64 under max, with a distinct bottom.
	MaxFloat = lattice.MaxFloat
	// SetUnion is string sets under union.
	SetUnion = lattice.SetUnion
	// MapMax is string→int64 maps under key-wise max.
	MapMax = lattice.MapMax
	// Product joins two lattices component-wise.
	Product = lattice.Product
	// Set is a SetUnion element.
	Set = lattice.Set
	// IntMap is a MapMax element.
	IntMap = lattice.IntMap
	// Pair is a Product element.
	Pair = lattice.Pair
)

// NewSet builds a SetUnion element.
func NewSet(keys ...string) Set { return lattice.NewSet(keys...) }

// Snapshot is the wait-free atomic scan object of Section 6: Update
// joins a value into the shared state, ReadMax returns the join of
// everything updated so far, and Scan does both at once. Any two scan
// results are comparable and the object is linearizable.
type Snapshot = snapshot.Snapshot

// NewSnapshot returns an n-slot snapshot over lat.
func NewSnapshot(n int, lat Lattice, opts ...Option) *Snapshot {
	needSlots("NewSnapshot", n)
	s := snapshot.New(n, lat)
	cfg := buildConfig(opts)
	if cfg.Probe != nil {
		s.Instrument(cfg.Probe, true)
	}
	cfg.register(s)
	return s
}

// ArraySnapshot is an n-element array in which slot p writes element p
// and Scan returns an instantaneous view of the whole array.
type ArraySnapshot = snapshot.ArraySnapshot

// NewArraySnapshot returns the paper's array snapshot (the semilattice
// scan over tagged vectors).
func NewArraySnapshot(n int, opts ...Option) ArraySnapshot {
	needSlots("NewArraySnapshot", n)
	a := snapshot.NewArray(n)
	cfg := buildConfig(opts)
	if cfg.Probe != nil {
		a.Instrument(cfg.Probe, true)
	}
	cfg.register(a)
	return a
}

// Agreement is the wait-free approximate agreement object of Section 4
// (Figure 2): processes Input real values and every Output is within
// the input range and within ε of every other output.
type Agreement = agreement.Native

// NewAgreement returns an n-slot approximate agreement object with
// tolerance eps > 0.
func NewAgreement(n int, eps float64, opts ...Option) *Agreement {
	needSlots("NewAgreement", n)
	if eps <= 0 {
		panic(&ArgError{Fn: "NewAgreement", Arg: "eps", Value: eps, Why: "tolerance must be positive"})
	}
	a := agreement.NewNative(n, eps)
	cfg := buildConfig(opts)
	if cfg.Probe != nil {
		a.Instrument(cfg.Probe)
	}
	cfg.register(a)
	return a
}

// Spec is a sequential specification with declared commute/overwrite
// algebra; see package documentation for the Property 1 requirement.
type Spec = spec.Spec

// Inv is an invocation of a Spec operation.
type Inv = spec.Inv

// Object is the universal construction of Section 5.4: a wait-free
// linearizable object for any Property 1 specification.
type Object = core.Universal

// NewObject returns an n-slot wait-free object implementing s. The
// spec's algebra is trusted; prefer NewCheckedObject for specs that
// have not been independently validated.
func NewObject(s Spec, n int, opts ...Option) *Object {
	needSlots("NewObject", n)
	cfg := buildConfig(opts)
	u := newUniversal(s, n, cfg)
	if cfg.Probe != nil {
		u.Instrument(cfg.Probe)
	}
	cfg.register(u)
	return u
}

// newUniversal constructs the universal object on the selected
// substrate: native atomics (core.New) or the step-granular simulated
// registers (core.NewSimulated) when WithBackend(Simulated(...)) was
// given. apram.BackendScheduler and the simulator's scheduler
// interface have identical method sets, so the configured scheduler
// passes through directly.
func newUniversal(s Spec, n int, cfg Options) *Object {
	var u *Object
	if cfg.Backend.IsSimulated() {
		var sc pram.Scheduler
		if bs := cfg.Backend.Scheduler(); bs != nil {
			sc = bs
		}
		u = core.NewSimulated(s, n, sc)
	} else {
		u = core.New(s, n)
	}
	if cfg.TruncateEvery > 0 {
		u.EnableTruncation(cfg.TruncateEvery)
	}
	return u
}

// NewCheckedObject validates the spec's declared algebra (and
// Property 1) on the provided sample states and invocations before
// construction, returning an error for types — like FIFO queues — that
// cannot be implemented wait-free from registers.
func NewCheckedObject(s Spec, n int, states []spec.State, invs []Inv, opts ...Option) (*Object, error) {
	needSlots("NewCheckedObject", n)
	if err := core.CheckProperty1(s, states, invs); err != nil {
		return nil, err
	}
	cfg := buildConfig(opts)
	u := newUniversal(s, n, cfg)
	if cfg.Probe != nil {
		u.Instrument(cfg.Probe)
	}
	cfg.register(u)
	return u, nil
}

// BatchSpec lifts a Property 1 spec to its batched form: invocations
// are BatchInv groups, each applied as one operation of the universal
// construction (one scan per batch instead of one per logical op),
// responding with the []any of inner responses in batch order. Only
// internally commuting batches keep the algebraic guarantees — see
// the admission rule in package apram/serve, which applies it
// automatically.
func BatchSpec(s Spec) Spec { return spec.Batch(s) }

// BatchInv composes invocations into one batched invocation for an
// object built over BatchSpec(s).
func BatchInv(invs ...Inv) Inv { return spec.BatchInv(invs...) }

// Ready-made Property 1 specifications for use with NewObject.
type (
	// CounterSpec is the paper's counter: inc, dec, reset, read.
	CounterSpec = types.Counter
	// ClockSpec is a vector logical clock: merge, readclock.
	ClockSpec = types.Clock
	// GSetSpec is a grow-set with clear: add, clear, members.
	GSetSpec = types.GSet
	// MaxRegSpec is a max-register: writemax, readmax.
	MaxRegSpec = types.MaxReg
	// RegisterSpec is a read/write register: write, readreg.
	RegisterSpec = types.Register
	// DirectorySpec is a last-writer-wins map: put, del, get, getall.
	DirectorySpec = types.Directory
	// KCounterSpec is a counter-vector (one counter per string key):
	// vinc, vread, vsum, vzero. Its per-key operations make it the
	// canonical shardable type for apram/shard.
	KCounterSpec = types.KCounter
)

// KD is the vinc argument: key and signed delta.
type KD = types.KD

// The deliberate Property 1 failures, exported so callers can see
// NewCheckedObject reject them: the FIFO queue and the sticky bit (a
// consensus object). Neither has a deterministic wait-free register
// implementation.
type (
	// QueueSpec is a FIFO queue: enq, deq. Fails Property 1.
	QueueSpec = types.Queue
	// StickyBitSpec is a write-once bit: set, readbit. Fails Property 1.
	StickyBitSpec = types.StickyBit
)

// Invocation constructors for the ready-made specs.
var (
	// Inc builds a counter inc(amount) invocation.
	Inc = types.Inc
	// Dec builds a counter dec(amount) invocation.
	Dec = types.Dec
	// Reset builds a counter reset(amount) invocation.
	Reset = types.Reset
	// Read builds a counter read() invocation.
	Read = types.Read
	// Add builds a gset add(elem) invocation.
	Add = types.Add
	// Clear builds a gset clear() invocation.
	Clear = types.Clear
	// Members builds a gset members() invocation.
	Members = types.Members
	// Merge builds a clock merge(timestamp) invocation.
	Merge = types.Merge
	// ReadClock builds a clock readclock() invocation.
	ReadClock = types.ReadClock
	// WriteMax builds a maxreg writemax(v) invocation.
	WriteMax = types.WriteMax
	// ReadMax builds a maxreg readmax() invocation.
	ReadMax = types.ReadMaxInv
	// Put builds a directory put(k, v) invocation.
	Put = types.Put
	// Del builds a directory del(k) invocation.
	Del = types.Del
	// Get builds a directory get(k) invocation.
	Get = types.Get
	// GetAll builds a directory getall() invocation.
	GetAll = types.GetAll
	// VInc builds a kcounter vinc(key, delta) invocation.
	VInc = types.VInc
	// VRead builds a kcounter vread(key) invocation.
	VRead = types.VRead
	// VSum builds a kcounter vsum() invocation.
	VSum = types.VSum
	// VZero builds a kcounter vzero() invocation.
	VZero = types.VZero
)

// PRMW is the pseudo read-modify-write object of Anderson (the
// paper's Section 2 related work): commuting-function updates that
// return no value, plus a linearizable read. Updates and reads each
// cost one wait-free snapshot operation.
type PRMW = types.PRMW

// CommutingFamily describes the function family a PRMW object applies;
// AddFamily, MaxFamily and XorFamily are ready-made.
type CommutingFamily = types.CommutingFamily

// Ready-made commuting families.
type (
	// AddFamily is x ↦ x+k.
	AddFamily = types.AddFamily
	// MaxFamily is x ↦ max(x,k).
	MaxFamily = types.MaxFamily
	// XorFamily is x ↦ x⊕k.
	XorFamily = types.XorFamily
)

// NewPRMW returns an n-slot pseudo read-modify-write object over fam.
func NewPRMW(n int, fam CommutingFamily, opts ...Option) *PRMW {
	needSlots("NewPRMW", n)
	o := types.NewPRMW(n, fam)
	cfg := buildConfig(opts)
	if cfg.Probe != nil {
		o.Instrument(cfg.Probe, true)
	}
	cfg.register(o)
	return o
}

// Counter is the type-specific optimized wait-free counter (inc, dec,
// reset, read) — the Section 5.4 closing-remark optimization. It is
// semantically identical to NewObject(CounterSpec{}, n) and roughly an
// order of magnitude cheaper.
type Counter = types.DirectCounter

// NewCounter returns an n-slot wait-free counter.
func NewCounter(n int, opts ...Option) *Counter {
	needSlots("NewCounter", n)
	c := types.NewDirectCounter(n)
	cfg := buildConfig(opts)
	if cfg.Probe != nil {
		c.Instrument(cfg.Probe, true)
	}
	cfg.register(c)
	return c
}

// Clock is the type-specific optimized wait-free vector logical clock.
type Clock = types.DirectClock

// NewClock returns an n-slot wait-free logical clock.
func NewClock(n int, opts ...Option) *Clock {
	needSlots("NewClock", n)
	c := types.NewDirectClock(n)
	cfg := buildConfig(opts)
	if cfg.Probe != nil {
		c.Instrument(cfg.Probe, true)
	}
	cfg.register(c)
	return c
}

// Consensus is randomized wait-free binary consensus from registers —
// the construction deterministic register algorithms cannot achieve
// (the paper's Section 1 impossibility), made possible by randomizing:
// agreement and validity hold deterministically, termination with
// probability 1 in constant expected rounds. The shared coin inside is
// the random walk over the wait-free counter that Section 5.1 cites as
// the counter's motivating application.
type Consensus = consensus.Consensus

// NewBinaryConsensus returns an n-slot binary consensus object. The
// local randomness of the shared coins is seeded with WithSeed
// (default 0); safety never depends on the seed — it exists only for
// reproducibility.
func NewBinaryConsensus(n int, opts ...Option) *Consensus {
	needSlots("NewBinaryConsensus", n)
	cfg := buildConfig(opts)
	c := consensus.New(n, cfg.Seed)
	if cfg.Probe != nil {
		c.Instrument(cfg.Probe)
	}
	cfg.register(c)
	return c
}

// AdoptCommit is the wait-free adopt-commit object underlying
// Consensus, exposed because it is independently useful: if any
// process commits a value, every process leaves the object holding it.
type AdoptCommit = consensus.AdoptCommit

// NewAdoptCommit returns an n-slot adopt-commit object for
// non-negative integer proposals.
func NewAdoptCommit(n int, opts ...Option) *AdoptCommit {
	needSlots("NewAdoptCommit", n)
	ac := consensus.NewAdoptCommit(n)
	cfg := buildConfig(opts)
	if cfg.Probe != nil {
		ac.Instrument(cfg.Probe, true)
	}
	cfg.register(ac)
	return ac
}
