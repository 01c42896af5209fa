package obs

import "sync/atomic"

// DefaultSpanCapacity is the per-slot ring capacity NewRecorder uses
// when WithSpanCapacity is not given.
const DefaultSpanCapacity = 4096

// auxBits is how many bits of payload a ring record carries next to
// its kind and code: two 24-bit saturating access deltas.
const (
	auxDeltaBits = 24
	auxDeltaMax  = 1<<auxDeltaBits - 1
)

// RecorderOption configures a Recorder at construction time.
type RecorderOption func(*Recorder)

// WithClock replaces the recorder's timestamp source. The default is
// an internal monotone tick (one per record); the chaos harness and
// the simulators pass the engine's global step counter instead, which
// is what makes exported traces byte-identical across replays. The
// clock is called from every slot's goroutine and must be wait-free.
func WithClock(clock func() uint64) RecorderOption {
	return func(r *Recorder) { r.clock = clock }
}

// WithSpanCapacity sets the per-slot ring capacity (rounded up to a
// power of two, minimum 8). When a slot records more than its capacity
// the oldest records are overwritten and Dropped reports how many.
func WithSpanCapacity(c int) RecorderOption {
	return func(r *Recorder) { r.capacity = c }
}

// recSlot is one process slot's ring. The plain (non-atomic) fields
// follow the probe layer's single-writer discipline — only the slot's
// own operations touch them — exactly like Stats' per-slot mark. The
// ring words and head are atomic so concurrent exporters can read a
// consistent snapshot while the slot keeps writing.
type recSlot struct {
	head atomic.Uint64 // records ever written; ring[seq%cap] holds seq
	ring []atomic.Uint64

	reads, writes         uint64 // running access totals (slot-owned)
	markReads, markWrites uint64 // totals at the current op's begin

	_ [40]byte // keep neighbouring slots off this cache line
}

// Recorder is the wait-free flight recorder: a Probe that keeps,
// per process slot, a fixed-capacity ring of timestamped records — op
// begins and ends (with the op's measured register reads/writes),
// and structural events. The hot path is a handful of atomic stores
// into a preallocated ring: no locks, no allocation, overwrite-oldest
// when full. Timestamps come from the configured clock (see
// WithClock); with a deterministic clock the exported spans are a
// pure function of the schedule.
//
// Like every probe, slot s's callbacks must come from the single
// goroutine driving slot s; Spans, SlotSpans and Dropped may be called
// concurrently with recording and observe a consistent suffix.
type Recorder struct {
	slots    []recSlot
	capacity int
	capMask  uint64
	clock    func() uint64
	tick     atomic.Uint64
}

// NewRecorder builds a flight recorder for n process slots.
func NewRecorder(n int, opts ...RecorderOption) *Recorder {
	if n <= 0 {
		panic("obs: NewRecorder with no slots")
	}
	r := &Recorder{capacity: DefaultSpanCapacity}
	for _, opt := range opts {
		opt(r)
	}
	c := 8
	for c < r.capacity {
		c <<= 1
	}
	r.capacity = c
	r.capMask = uint64(c - 1)
	r.slots = make([]recSlot, n)
	for i := range r.slots {
		r.slots[i].ring = make([]atomic.Uint64, 2*c)
	}
	return r
}

// Slots returns the number of process slots.
func (r *Recorder) Slots() int { return len(r.slots) }

// Capacity returns the per-slot ring capacity (records).
func (r *Recorder) Capacity() int { return r.capacity }

// Dropped returns how many of slot's records have been overwritten.
func (r *Recorder) Dropped(slot int) uint64 {
	h := r.slots[slot].head.Load()
	if h > uint64(r.capacity) {
		return h - uint64(r.capacity)
	}
	return 0
}

func (r *Recorder) now() uint64 {
	if r.clock != nil {
		return r.clock()
	}
	return r.tick.Add(1)
}

// record appends one (timestamp, meta) pair to sl's ring. The head is
// bumped only after both words are stored, so a reader that saw head
// cover a sequence number is guaranteed untorn words for it (unless
// the ring has since lapped it, which the reader detects by re-reading
// head — see SlotSpans).
func (r *Recorder) record(sl *recSlot, kind SpanKind, code uint8, aux uint64) {
	h := sl.head.Load()
	i := (h & r.capMask) * 2
	sl.ring[i].Store(r.now())
	sl.ring[i+1].Store(uint64(kind)<<60 | uint64(code)<<48 | aux)
	sl.head.Store(h + 1)
}

// satDelta saturates an access delta into its 24-bit aux field.
func satDelta(d uint64) uint64 {
	if d > auxDeltaMax {
		return auxDeltaMax
	}
	return d
}

// RegReads implements Probe. It only advances the slot's running
// total; the per-op deltas are materialized at OpDone.
func (r *Recorder) RegReads(slot, n int) { r.slots[slot].reads += uint64(n) }

// RegWrites implements Probe.
func (r *Recorder) RegWrites(slot, n int) { r.slots[slot].writes += uint64(n) }

// Event implements Probe: one ring record per structural event.
func (r *Recorder) Event(slot int, e Event) {
	r.record(&r.slots[slot], SpanEvent, uint8(e), 0)
}

// OpBegin implements Probe: it marks the slot's access totals and
// records the begin edge.
func (r *Recorder) OpBegin(slot int, op Op) {
	sl := &r.slots[slot]
	sl.markReads, sl.markWrites = sl.reads, sl.writes
	r.record(sl, SpanBegin, uint8(op), 0)
}

// OpDone implements Probe: it records the end edge carrying the
// operation's register reads and writes since the matching OpBegin
// (or since the previous OpDone when no begin was reported).
func (r *Recorder) OpDone(slot int, op Op) {
	sl := &r.slots[slot]
	dr, dw := sl.reads-sl.markReads, sl.writes-sl.markWrites
	sl.markReads, sl.markWrites = sl.reads, sl.writes
	r.record(sl, SpanEnd, uint8(op), satDelta(dr)<<auxDeltaBits|satDelta(dw))
}

// EpochBegin implements Probe: it records the begin edge of the
// slot's truncation-epoch participation interval. Unlike OpBegin it
// leaves the slot's access marks alone — the interval spans whole
// operations, and its edges may fall inside an enclosing batch span
// whose deltas must not be disturbed.
func (r *Recorder) EpochBegin(slot int) {
	r.record(&r.slots[slot], SpanBegin, uint8(OpTruncEpoch), 0)
}

// EpochEnd implements Probe: the matching end edge, with zero
// access deltas (the coordinator performs no shared accesses).
func (r *Recorder) EpochEnd(slot int) {
	r.record(&r.slots[slot], SpanEnd, uint8(OpTruncEpoch), 0)
}

// BatchDone implements Probe as a no-op: the batch itself is the
// OpBatch span, and its size distribution is serve's telemetry.
func (r *Recorder) BatchDone(int, int) {}

// SlotSpans decodes slot's surviving ring records in recording order.
// It is safe to call while the slot is still recording: records the
// writer overwrote (or may have been overwriting) during the read are
// discarded, never returned torn.
func (r *Recorder) SlotSpans(slot int) []Span {
	sl := &r.slots[slot]
	h1 := sl.head.Load()
	lo := uint64(0)
	if h1 > uint64(r.capacity) {
		lo = h1 - uint64(r.capacity)
	}
	type raw struct{ seq, t, meta uint64 }
	buf := make([]raw, 0, h1-lo)
	for s := lo; s < h1; s++ {
		i := (s & r.capMask) * 2
		buf = append(buf, raw{s, sl.ring[i].Load(), sl.ring[i+1].Load()})
	}
	// Any sequence number the writer could have been lapping while we
	// copied is suspect: seq s shares a cell with seq s+cap, and the
	// writer starts storing seq h before bumping head past h — so only
	// s with s+cap strictly beyond the post-copy head are certainly
	// intact.
	h2 := sl.head.Load()
	out := make([]Span, 0, len(buf))
	for _, w := range buf {
		if w.seq+uint64(r.capacity) <= h2 {
			continue
		}
		out = append(out, decodeSpan(slot, w.seq, w.t, w.meta))
	}
	return out
}

// Spans merges every slot's surviving records into one timeline,
// ordered by (Time, Slot, Seq).
func (r *Recorder) Spans() []Span {
	var out []Span
	for slot := range r.slots {
		out = append(out, r.SlotSpans(slot)...)
	}
	SortSpans(out)
	return out
}

func decodeSpan(slot int, seq, t, meta uint64) Span {
	sp := Span{
		Slot: slot,
		Seq:  seq,
		Time: t,
		Kind: SpanKind(meta >> 60),
	}
	code := uint8(meta >> 48)
	switch sp.Kind {
	case SpanEvent:
		sp.Event = Event(code)
	case SpanEnd:
		sp.Op = Op(code)
		sp.Reads = meta >> auxDeltaBits & auxDeltaMax
		sp.Writes = meta & auxDeltaMax
	default:
		sp.Op = Op(code)
	}
	return sp
}
