// Package obs is the pluggable observability layer for the apram
// wait-free data structures: one Probe interface carrying exact
// per-slot register read/write accounting, structural events
// (retries, helping, publishes, rounds, coin flips), and the edges of
// operation, batch and truncation-epoch spans.
//
// obs counts what the paper's cost model (§2) charges and records the
// span edges; it keeps no distributions, gauges or clocks of its own.
// Latency and batch-size distributions, levels such as the retained
// entry count, and sample clocks live in apram/telemetry, which the
// serving layers feed (apram.WithTelemetry).
//
// The paper's quantitative core is exact operation counting — Section
// 6.2 derives that one atomic Scan costs exactly n+1 register writes
// and n²−1 register reads — and this package makes those counts
// observable on the *native* (goroutine-ready) objects, not just the
// simulated substrate. Attach a probe at construction time through
// apram.WithProbe, or later with each object's Instrument method:
//
//	st := obs.NewStats(n)
//	s := apram.NewSnapshot(n, apram.MaxInt{}, apram.WithProbe(st))
//	... run work ...
//	sum := st.Snapshot()
//	fmt.Println(sum.Reads, sum.Writes) // k·(n²−1), k·(n+1) after k scans
//
// # Wait-freedom safety
//
// Everything on the reporting path must itself be wait-free: a probe
// that could block would silently revoke the very guarantee the
// objects exist to provide. The Stats implementation keeps one
// cache-line-separated block of atomic counters per process slot —
// slot s is written only through operations performed by slot s (the
// same single-writer discipline the registers follow), so increments
// never contend, and aggregation is a read-only sweep. No mutexes
// anywhere. Custom Probe implementations must preserve this property.
//
// # Cost model
//
// The unit of accounting is one atomic register access, matching the
// asynchronous PRAM cost model: RegReads/RegWrites report exactly the
// loads and stores the algorithms perform on their shared registers
// (local-copy reads the algorithms elide are, correctly, not counted).
// OpDone closes one high-level operation; Stats attributes to it every
// register access since the slot's previous OpDone, which is what
// makes the per-op step counts measured rather than derived.
package obs

// Op identifies a completed high-level operation reported via
// Probe.OpDone.
type Op uint8

// Operations. Only the object the caller holds directly reports
// OpDone; building blocks nested inside it (e.g. the snapshot inside a
// counter) contribute register counts and events but not operations,
// so steps-per-op attribution stays unambiguous.
const (
	// OpScan is a snapshot Scan, Update or ReadMax (one Figure 5 pass).
	OpScan Op = iota
	// OpExecute is a universal-construction Execute (Figure 4).
	OpExecute
	// OpCounterAdd is a direct counter Inc or Dec.
	OpCounterAdd
	// OpCounterReset is a direct counter Reset.
	OpCounterReset
	// OpCounterRead is a direct counter Read.
	OpCounterRead
	// OpClockMerge is a direct clock Merge.
	OpClockMerge
	// OpClockRead is a direct clock Read.
	OpClockRead
	// OpPRMWUpdate is a PRMW Update.
	OpPRMWUpdate
	// OpPRMWRead is a PRMW Read.
	OpPRMWRead
	// OpAgree is an approximate-agreement Output.
	OpAgree
	// OpACApply is an adopt-commit Apply.
	OpACApply
	// OpDecide is a consensus Decide.
	OpDecide
	// OpBatch is one apram/serve slot-worker turn: the composed batch
	// operation executed on behalf of queued client requests. The
	// inner universal-construction Execute reports its own OpExecute;
	// OpBatch brackets it together with the fan-out.
	OpBatch
	// OpTruncEpoch is one slot's participation interval in a
	// checkpoint-and-truncate epoch: its begin edge is the slot's ack,
	// its end edge the slot's fold (or the abort/idle boundary that
	// releases it). It is reported only through Probe.EpochBegin and
	// Probe.EpochEnd — span-aware probes render epochs as intervals;
	// Stats ignores both, so steps-per-op attribution is untouched.
	OpTruncEpoch

	// NumOps bounds the Op enum; keep it last.
	NumOps
)

var opNames = [NumOps]string{
	"scan", "execute", "counter-add", "counter-reset", "counter-read",
	"clock-merge", "clock-read", "prmw-update", "prmw-read",
	"agree", "adopt-commit", "decide", "batch", "trunc-epoch",
}

// String names the operation (stable identifiers, used as JSON keys).
func (o Op) String() string {
	if o < NumOps {
		return opNames[o]
	}
	return "op?"
}

// Event identifies a structural event reported via Probe.Event.
type Event uint8

// Events.
const (
	// EvRetry is a lock-free retry: a dirty double collect, or an
	// agreement pass that could neither return nor advance.
	EvRetry Event = iota
	// EvHelp is a helping step: an Afek et al. scanner borrowing the
	// view embedded by a process it observed to move twice.
	EvHelp
	// EvPublish is a universal-construction entry publication (Step 2).
	EvPublish
	// EvPureElide is a pure operation linearized at its scan and never
	// published (the Section 5.4 type-specific optimization).
	EvPureElide
	// EvEpochRestart is a counter discarding its contributions because
	// a newer reset epoch overwrote them.
	EvEpochRestart
	// EvRound is a protocol round advancing (agreement preference
	// halving, consensus conciliate+adopt-commit round).
	EvRound
	// EvCoinStep is one step of the shared-coin random walk.
	EvCoinStep
	// EvCoinFlip is a completed shared-coin Flip.
	EvCoinFlip
	// EvCommit is an adopt-commit Apply returning Commit.
	EvCommit
	// EvAdopt is an adopt-commit Apply returning Adopt.
	EvAdopt
	// EvLinRebuild is a universal-construction Execute that could not
	// extend its process's cached linearization incrementally and fell
	// back to a full rebuild of the entry graph (the incremental
	// engine's slow path; purely local, no register traffic).
	EvLinRebuild
	// EvBatch is an apram/serve slot worker publishing one composed
	// batch on behalf of queued client requests (the batch's size goes
	// to Probe.BatchDone; its distribution is serve's telemetry
	// batch_size histogram).
	EvBatch
	// EvCheckpoint is one process folding a dominated history prefix
	// into its linearizer's replay base state during a truncation epoch
	// (one per process per epoch; purely local, no register traffic).
	EvCheckpoint
	// EvTruncate is a truncation epoch completing: every process has
	// folded, the dominated entries are freed, and the boundary Prev
	// pointers are cut. Reported once per epoch, by the last folder.
	EvTruncate
	// EvTruncLag is a truncation epoch falling behind live traffic:
	// another full proposal interval's worth of operations completed
	// while the epoch was still waiting on some slot's ack or fold —
	// the retention-backpressure signal that a starved or stalled slot
	// is keeping the entry graph from shrinking. Reported at most once
	// per epoch, by whichever slot's operation crossed the threshold.
	EvTruncLag

	// NumEvents bounds the Event enum; keep it last.
	NumEvents
)

var eventNames = [NumEvents]string{
	"retry", "help", "publish", "pure-elide", "epoch-restart",
	"round", "coin-step", "coin-flip", "commit", "adopt",
	"lin-rebuild", "batch-flush", "checkpoint", "truncate", "trunc-lag",
}

// String names the event (stable identifiers, used as JSON keys).
func (e Event) String() string {
	if e < NumEvents {
		return eventNames[e]
	}
	return "event?"
}

// Probe receives instrumentation callbacks from apram objects. All
// methods are called from the goroutine driving the named slot, with
// the slot's single-writer discipline: a given slot's callbacks never
// race with each other, but distinct slots call concurrently.
// Implementations must be wait-free — no locks, no channels, no
// blocking — or they revoke the objects' progress guarantee. An
// observer that has no use for a callback implements it as a no-op,
// as Stats does for the span edges and batch sizes.
type Probe interface {
	// RegReads records n atomic register reads performed by slot.
	RegReads(slot, n int)
	// RegWrites records n atomic register writes performed by slot.
	RegWrites(slot, n int)
	// Event records one occurrence of a structural event on slot.
	Event(slot int, e Event)
	// OpBegin records that slot started executing op. Every OpBegin is
	// eventually paired with an OpDone for the same slot unless the
	// process crashes mid-operation.
	OpBegin(slot int, op Op)
	// OpDone records completion of one high-level operation by slot.
	OpDone(slot int, op Op)
	// BatchDone records that slot completed one apram/serve batch
	// carrying size logical client operations (reported once per
	// serve turn, just before the turn's OpDone(OpBatch)).
	BatchDone(slot, size int)
	// EpochBegin records that slot entered a truncation epoch (acked
	// it), and EpochEnd that it left it (folded, or was released by an
	// abort). The coordinator reports both at turn boundaries. Unlike
	// OpBegin/OpDone the edges carry no access deltas and must not
	// disturb an observer's per-op accounting: an epoch interval spans
	// many of the slot's operations, and its edges can fall inside an
	// enclosing serve batch span.
	EpochBegin(slot int)
	EpochEnd(slot int)
}

// Nop is the no-op probe: the default when no probe is attached.
// Objects keep a nil probe and skip reporting entirely, so the nil
// fast path costs one predictable branch per operation; Nop exists for
// call sites that want a non-nil Probe value (fan-outs, tests).
var Nop Probe = nop{}

type nop struct{}

func (nop) RegReads(int, int)  {}
func (nop) RegWrites(int, int) {}
func (nop) Event(int, Event)   {}
func (nop) OpBegin(int, Op)    {}
func (nop) OpDone(int, Op)     {}
func (nop) BatchDone(int, int) {}
func (nop) EpochBegin(int)     {}
func (nop) EpochEnd(int)       {}

// Multi fans callbacks out to several probes in order. Nil entries are
// dropped; an empty result degenerates to Nop.
func Multi(probes ...Probe) Probe {
	var ps []Probe
	for _, p := range probes {
		if p != nil {
			ps = append(ps, p)
		}
	}
	switch len(ps) {
	case 0:
		return Nop
	case 1:
		return ps[0]
	}
	return multi(ps)
}

type multi []Probe

func (m multi) RegReads(slot, n int) {
	for _, p := range m {
		p.RegReads(slot, n)
	}
}

func (m multi) RegWrites(slot, n int) {
	for _, p := range m {
		p.RegWrites(slot, n)
	}
}

func (m multi) Event(slot int, e Event) {
	for _, p := range m {
		p.Event(slot, e)
	}
}

func (m multi) OpBegin(slot int, op Op) {
	for _, p := range m {
		p.OpBegin(slot, op)
	}
}

func (m multi) OpDone(slot int, op Op) {
	for _, p := range m {
		p.OpDone(slot, op)
	}
}

func (m multi) BatchDone(slot, size int) {
	for _, p := range m {
		p.BatchDone(slot, size)
	}
}

func (m multi) EpochBegin(slot int) {
	for _, p := range m {
		p.EpochBegin(slot)
	}
}

func (m multi) EpochEnd(slot int) {
	for _, p := range m {
		p.EpochEnd(slot)
	}
}

// Kind discriminates trace records.
type Kind uint8

// Trace record kinds.
const (
	// KindReads is a RegReads callback.
	KindReads Kind = iota
	// KindWrites is a RegWrites callback.
	KindWrites
	// KindEvent is an Event callback.
	KindEvent
	// KindOp is an OpDone callback (EpochEnd traces as KindOp with
	// OpTruncEpoch).
	KindOp
	// KindBegin is an OpBegin callback (EpochBegin traces as KindBegin
	// with OpTruncEpoch).
	KindBegin
	// KindBatch is a BatchDone callback.
	KindBatch
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindReads:
		return "reads"
	case KindWrites:
		return "writes"
	case KindEvent:
		return "event"
	case KindOp:
		return "op"
	case KindBegin:
		return "begin"
	case KindBatch:
		return "batch"
	}
	return "kind?"
}

// Record is one traced probe callback.
type Record struct {
	// Slot is the process slot the callback was for.
	Slot int
	// Kind says which callback fired.
	Kind Kind
	// Op is set for KindOp and KindBegin records.
	Op Op
	// Event is set for KindEvent records.
	Event Event
	// N is the access count for KindReads/KindWrites records and the
	// batch size for KindBatch records.
	N int
}

// Trace adapts a function to a Probe, invoking it for every callback —
// the optional trace hook. The function runs on the hot path of the
// slot's goroutine: it must not block, and it observes callbacks from
// distinct slots concurrently. Combine with a Stats via Multi to trace
// and count at once.
type Trace func(Record)

// RegReads traces a read batch.
func (t Trace) RegReads(slot, n int) { t(Record{Slot: slot, Kind: KindReads, N: n}) }

// RegWrites traces a write batch.
func (t Trace) RegWrites(slot, n int) { t(Record{Slot: slot, Kind: KindWrites, N: n}) }

// Event traces a structural event.
func (t Trace) Event(slot int, e Event) { t(Record{Slot: slot, Kind: KindEvent, Event: e}) }

// OpDone traces an operation completion.
func (t Trace) OpDone(slot int, op Op) { t(Record{Slot: slot, Kind: KindOp, Op: op}) }

// OpBegin traces an operation start.
func (t Trace) OpBegin(slot int, op Op) { t(Record{Slot: slot, Kind: KindBegin, Op: op}) }

// BatchDone traces a batch completion.
func (t Trace) BatchDone(slot, size int) { t(Record{Slot: slot, Kind: KindBatch, N: size}) }

// EpochBegin and EpochEnd trace a truncation-epoch interval as the
// begin and end of an OpTruncEpoch, the way the Recorder renders it.
func (t Trace) EpochBegin(slot int) { t.OpBegin(slot, OpTruncEpoch) }
func (t Trace) EpochEnd(slot int)   { t.OpDone(slot, OpTruncEpoch) }
