package apram

import (
	"fmt"
	"reflect"
	"strings"
	"sync"

	"repro/apram/obs"
	"repro/apram/telemetry"
)

// This file is the options-based construction surface. Every
// constructor in this package accepts trailing Options:
//
//	st := apram.NewStats(8)
//	c := apram.NewCounter(8, apram.WithProbe(st), apram.WithName("requests"))

// Probe is the observability callback interface; see package
// repro/apram/obs for the contract (wait-free implementations only)
// and the ready-made Stats implementation.
type Probe = obs.Probe

// Stats is the lock-free per-slot statistics probe from package obs:
// attach one with WithProbe, read it with its Snapshot method.
type Stats = obs.Stats

// StatsSummary is a point-in-time aggregation of a Stats probe
// (obs.Summary): totals, per-op breakdown, per-slot breakdown, and a
// steps-per-op histogram, all JSON-marshalable.
type StatsSummary = obs.Summary

// OpSummary is one operation kind's row in a StatsSummary.
type OpSummary = obs.OpSummary

// NewStats returns a Stats probe sized for objects with n process
// slots.
func NewStats(n int) *Stats { return obs.NewStats(n) }

// Recorder is the wait-free flight recorder from package obs: a probe
// that keeps per-slot rings of timestamped op begin/end spans and
// structural events. Attach one with WithProbe (alone, or alongside a
// Stats via obs.Multi), drain it with its Spans method, and export the
// result with obs.WriteSpansJSONL / obs.WriteChromeTrace or summarize
// it with SummarizeSpans.
type Recorder = obs.Recorder

// Span is one decoded flight-recorder record (obs.Span).
type Span = obs.Span

// SpanOpSummary is one operation label's row from SummarizeSpans.
type SpanOpSummary = obs.SpanOpSummary

// NewRecorder returns a flight recorder sized for objects with n
// process slots; see obs.NewRecorder for options (ring capacity,
// timestamp source).
func NewRecorder(n int, opts ...obs.RecorderOption) *Recorder { return obs.NewRecorder(n, opts...) }

// SummarizeSpans folds a recorded span timeline into per-operation
// summaries (count, register accesses, step extremes, events observed
// inside the ops), sorted by operation label.
func SummarizeSpans(spans []Span) []SpanOpSummary { return obs.SummarizeSpans(spans) }

// Option configures an object at construction time; build them with
// WithProbe, WithRecorder, WithSeed, WithName, WithBatchCap and
// WithQueueDepth.
type Option func(*Options)

// Options is the resolved form of a constructor's trailing Option
// list. It is exported so layers building on this package — notably
// apram/serve — can accept the same Option values the constructors
// do; most callers never touch it.
type Options struct {
	// Probe is the observability callback, already composed with any
	// WithRecorder recorders (nil when neither was given).
	Probe obs.Probe
	// Name is the WithName label ("" when unset; Register substitutes
	// a generated default).
	Name string
	// Seed and HasSeed carry WithSeed.
	Seed    int64
	HasSeed bool
	// BatchCap and QueueDepth carry the apram/serve tuning options
	// (0 when unset, meaning "use the layer's default").
	BatchCap   int
	QueueDepth int
	// TruncateEvery and RetainEntries carry the bounded-memory options
	// (WithTruncateEvery / WithRetainEntries): TruncateEvery 0 (unset)
	// leaves the entry graph unbounded.
	TruncateEvery int
	RetainEntries int
	// Backend carries WithBackend; the zero value is the native
	// (sync/atomic) substrate.
	Backend Backend
	// Shards carries WithShards (0 when unset, meaning one shard).
	// Only apram/shard consumes it; everything else ignores it.
	Shards int
	// Telemetry carries WithTelemetry (nil when unset). Only the
	// serving layers (apram/serve, apram/shard) consume it; plain
	// constructors ignore it.
	Telemetry *telemetry.Registry
	// Admission carries WithAdmission; the zero value is the blocking
	// policy (Block). Only the serving layers consume it.
	Admission Admission

	recorders []obs.Probe
}

// ResolveOptions folds an Option list into its resolved Options,
// composing WithProbe and WithRecorder values into a single Probe.
func ResolveOptions(opts ...Option) Options {
	var c Options
	for _, o := range opts {
		o(&c)
	}
	if len(c.recorders) > 0 {
		c.Probe = obs.Multi(append([]obs.Probe{c.Probe}, c.recorders...)...)
	}
	return c
}

func buildConfig(opts []Option) Options { return ResolveOptions(opts...) }

// WithProbe attaches an observability probe to the constructed object:
// exact register read/write accounting, structural events, and
// per-operation step attribution (see package obs). The probe is wired
// through every layer of the object — a Consensus reports the register
// traffic of the adopt-commit snapshots and shared-coin counters
// inside it. The probe must be wait-free; obs.NewStats is, and the
// no-probe default costs one predictable branch per operation.
func WithProbe(p obs.Probe) Option {
	return func(c *Options) { c.Probe = p }
}

// WithRecorder attaches a flight recorder (obs.NewRecorder) to the
// constructed object, composing it with any WithProbe probe via
// obs.Multi — so `WithProbe(stats), WithRecorder(rec)` wires both.
// It exists because a Recorder is a Probe but obs.RecorderOption is
// not an Option: the recorder must be constructed (sized for n, with
// its own ring/clock options) before it can be attached, and this
// keeps that two-step explicit while letting the attachment ride the
// same option list as everything else.
func WithRecorder(r *obs.Recorder) Option {
	return func(c *Options) {
		if r != nil {
			c.recorders = append(c.recorders, r)
		}
	}
}

// WithSeed sets the seed for objects with local randomness (currently
// Consensus, whose shared coins it drives). Objects without randomness
// ignore it. Safety never depends on the seed — it exists for
// reproducibility.
func WithSeed(seed int64) Option {
	return func(c *Options) { c.Seed, c.HasSeed = seed, true }
}

// WithBatchCap bounds how many logical client operations one
// apram/serve slot worker may compose into a single published batch
// (default serve.DefaultBatchCap). Constructors in this package
// ignore it. serve.New panics with an ArgError on cap < 0; cap 1
// disables composition.
func WithBatchCap(cap int) Option {
	return func(c *Options) { c.BatchCap = cap }
}

// WithQueueDepth sets the per-slot submission queue depth of an
// apram/serve server (default serve.DefaultQueueDepth) — the
// backpressure bound on requests awaiting a slot worker.
// Constructors in this package ignore it. serve.New panics with an
// ArgError on depth ≤ 0.
func WithQueueDepth(depth int) Option {
	return func(c *Options) { c.QueueDepth = depth }
}

// WithShards partitions a keyed Property 1 object across s independent
// universal constructions behind one shard.Server front door: keyed
// operations route to their key's shard, cross-shard operations compose
// per-shard results into one linearizable response. Only shard.New
// consumes it — every other constructor ignores it. shard.New panics
// with an ArgError on s < 0; s of 0 or 1 means a single shard, and a
// spec that fails the spec.Partitionable gate degrades to a single
// shard (shard.Server.Sharded reports which way it went, mirroring the
// serve layer's batching degradation).
func WithShards(s int) Option {
	return func(c *Options) { c.Shards = s }
}

// WithTruncateEvery bounds the memory of objects built on the
// universal construction: every k completed operations the object's
// slots run a checkpoint-and-truncate epoch, folding the history
// prefix dominated by every slot's anchor into a spec.Key-validated
// state checkpoint and freeing the folded entries. Responses,
// linearizations, and the shared-access trace are identical to the
// unbounded object — only memory behaviour changes. k ≤ 0 (the
// default) leaves the graph unbounded; so does a spec with no
// checkpoint codec (spec.Checkpointable), in which case the option is
// silently ignored — Object.TruncationEnabled reports which way it
// went. Constructors not built on the universal construction ignore
// it.
func WithTruncateEvery(k int) Option {
	return func(c *Options) { c.TruncateEvery = k }
}

// WithRetainEntries sets the truncation floor used with
// WithTruncateEvery: epochs are skipped while the entry graph holds
// no more than n entries, so a mostly-idle object is not churned for
// negligible reclaim. The default 0 truncates whenever there is a
// foldable prefix. It has no effect without WithTruncateEvery.
func WithRetainEntries(n int) Option {
	return func(c *Options) { c.RetainEntries = n }
}

// WithTelemetry attaches a metrics registry to the serving layers:
// apram/serve registers per-slot operation-latency and batch-size
// histograms plus queue-depth/retained-entries/truncation-lag gauges
// under "serve.<name>.*", and apram/shard threads the registry into
// every shard (metric names pick up the per-shard "/s<i>" suffix) and
// adds its cross-shard counters under "shard.<name>.*". Export the
// registry with telemetry.WritePrometheus / WriteJSONL / PublishExpvar
// or serve it with Registry.Serve. On the simulated backend the
// registry's clock is switched to the object's deterministic step
// clock, making exported time series byte-identical across identical
// runs. Plain constructors ignore the option; nil detaches.
func WithTelemetry(r *telemetry.Registry) Option {
	return func(c *Options) { c.Telemetry = r }
}

// WithName labels the object; NameOf retrieves the label. Names are
// for telemetry plumbing — wiring one object's stats to one expvar or
// JSON key — and have no semantic effect.
func WithName(name string) Option {
	return func(c *Options) { c.Name = name }
}

// objectNames maps constructed objects to their registered names. It
// is keyed by type and address, not by the object itself, so the
// registry never keeps an object alive: a uintptr is not a reference
// to the collector, and Go's heap objects do not move. An entry
// outlives its object as a few dozen bytes; if a later object of the
// same type reuses the address, its own registration overwrites the
// entry. Reads are lock-free, and writes happen only at construction
// time, never on an operation path.
var objectNames sync.Map // nameKey -> string

// nameKey identifies a registered object without referencing it.
type nameKey struct {
	t    reflect.Type
	addr uintptr
}

// keyOf returns obj's registry key; only non-nil pointers have one.
func keyOf(obj any) (nameKey, bool) {
	v := reflect.ValueOf(obj)
	if v.Kind() != reflect.Pointer || v.IsNil() {
		return nameKey{}, false
	}
	return nameKey{v.Type(), v.Pointer()}, true
}

var (
	nameMu   sync.Mutex
	nameSeqs = map[string]uint64{}
)

// defaultName generates "<type>#<seq>" for objects constructed
// without WithName: the lowercased concrete type name, stripped of
// pointer and package qualifiers, with a per-type sequence number.
func defaultName(obj any) string {
	t := strings.TrimPrefix(fmt.Sprintf("%T", obj), "*")
	if i := strings.LastIndexByte(t, '.'); i >= 0 {
		t = t[i+1:]
	}
	t = strings.ToLower(t)
	nameMu.Lock()
	nameSeqs[t]++
	seq := nameSeqs[t]
	nameMu.Unlock()
	return fmt.Sprintf("%s#%d", t, seq)
}

// Register records the object's name for NameOf. Objects constructed
// without WithName get a generated "<type>#<seq>" default, so
// telemetry keyed by NameOf never shows blank identities. Exported
// for layers (apram/serve) that construct objects on the caller's
// behalf; the constructors in this package call it themselves. obj
// must be a pointer; other values are not registered.
func (c Options) Register(obj any) {
	k, ok := keyOf(obj)
	if !ok {
		return
	}
	name := c.Name
	if name == "" {
		name = defaultName(obj)
	}
	objectNames.Store(k, name)
}

func (c Options) register(obj any) { c.Register(obj) }

// NameOf returns the name the object was registered with at
// construction: the WithName label, or the generated "<type>#<seq>"
// default. It returns "" only for values no apram constructor built.
func NameOf(obj any) string {
	k, ok := keyOf(obj)
	if !ok {
		return ""
	}
	if v, ok := objectNames.Load(k); ok {
		return v.(string)
	}
	return ""
}
