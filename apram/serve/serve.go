// Package serve is the slot-multiplexed serving layer: it fronts any
// Property 1 apram object with an unbounded population of client
// goroutines, multiplexing them onto the object's n wait-free process
// slots.
//
// Every object in this repository is built for a fixed n, and the
// universal construction pays its O(n²) anchor-array scan per
// *published operation* (Section 5.4). A server turns that per-
// operation cost into a per-batch cost: each slot runs a worker
// goroutine that drains a bounded submission queue, composes the
// pending logical operations into one batched invocation (spec.Batch),
// publishes it through the universal construction with a single scan,
// and fans the inner responses back out over per-request futures. The
// Section 2 cost model charges only shared-memory accesses, so the
// local work of composing and fanning out is free; shared accesses
// per logical operation fall roughly by the batch size (experiment
// E17 measures this).
//
// Pure operations get a fast path for free: reads commute with
// reads, so a worker facing a run of pure requests composes a pure
// batch, and the batched spec marks a batch pure when every member is
// — the universal construction then elides publication entirely (one
// scan, no writes, EvPureElide), exactly as it does for a single pure
// operation.
//
// Batching is only sound for types whose commuting batches preserve
// Property 1. New decides this at construction with
// spec.CheckBatchable and silently degrades to singleton batches
// (BatchCap() == 1) when the check fails — the directory is the known
// example — or when the spec provides no sample invocations to check
// against. Singleton batches are always sound: Property 1 over
// singletons is the base spec's Property 1.
//
// The layer preserves the stack's guarantees in the terms that
// survive multiplexing: the slot workers execute wait-free operations
// (a worker turn is bounded regardless of other workers), the object
// stays linearizable — each composed batch is internally commuting,
// so every logical operation can be linearized at its batch's
// linearization point — and overload degrades by policy, not by
// accident: the front door runs an admission policy
// (apram.WithAdmission) that decides what a full queue means. The
// default Block policy preserves classic backpressure — Do blocks
// until space or context cancellation; ShedLowestPriority evicts the
// lowest-priority queued request to admit a higher-priority arrival
// (failing the victim with ErrOverload); DropAfter bounds both the
// admission wait and the queue residence of every request. Admitted
// operations are never abandoned by the server: once a worker picks a
// request up it executes wait-free to completion, so shedding trades
// only *admission* — never the wait-freedom of admitted operations.
package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/apram"
	"repro/apram/obs"
	"repro/apram/telemetry"
	"repro/internal/spec"
)

const (
	// DefaultBatchCap bounds the logical operations composed into one
	// published batch when WithBatchCap is not given.
	DefaultBatchCap = 64
	// DefaultQueueDepth is the per-slot submission queue depth when
	// WithQueueDepth is not given.
	DefaultQueueDepth = 256
	// flushSpins bounds the worker's flush pause: how many scheduler
	// yields it spends topping an under-full batch up from the queue
	// before composing what it has.
	flushSpins = 3
	// truncTickInterval is how often an idle slot worker lends its slot
	// to a pending truncation epoch (Object.TruncTick). Only workers of
	// truncation-enabled objects tick; see worker.
	truncTickInterval = time.Millisecond
)

// Request is one front-door submission with tenant attribution: the
// invocation plus the tenant label and priority tier the admission
// layer and per-tenant telemetry act on.
type Request struct {
	// Inv is the logical operation.
	Inv apram.Inv
	// Tenant labels the submitting tenant. Non-empty tenants get
	// per-tenant telemetry series "serve.<name>.<tenant>.*" (op_latency
	// histogram, shed counter, queued gauge) when the server has a
	// registry; the empty label means unattributed and costs nothing.
	Tenant string
	// Priority is the request's priority tier — larger outranks
	// smaller. Only the shed-lowest-priority admission policy reads it.
	Priority int
}

// request is one logical client operation in flight: the invocation,
// its tenant attribution, and a future (done) the owning slot worker
// resolves with either a response or an error.
type request struct {
	inv    spec.Inv
	tenant string
	prio   int
	tm     *tenantMetrics
	resp   any
	err    error
	done   chan struct{}
	// start is the telemetry clock at submission (0 when the server has
	// no registry); the owning worker turns it into one op-latency
	// histogram sample at fan-out.
	start uint64
	// enq is the wall-clock admission stamp under the drop-after-
	// deadline policy; the owning worker drops the request instead of
	// executing it when its queue residence exceeds the policy bound.
	enq time.Time
}

// Server multiplexes client goroutines onto the n process slots of a
// wait-free object implementing the given spec. All methods are safe
// for concurrent use.
type Server struct {
	base      spec.Spec
	obj       *apram.Object
	name      string
	n         int
	batchCap  int
	depth     int
	batching  bool
	admission apram.Admission
	probe     obs.Probe

	// clock/opLat/batchSize carry the WithTelemetry wiring (all nil
	// without a registry). The clock is the registry's: wall-clock
	// nanoseconds natively, the deterministic step counter on the
	// simulated backend.
	reg       *telemetry.Registry
	clock     func() uint64
	opLat     *telemetry.Histogram
	batchSize *telemetry.Histogram

	// tenants maps tenant labels to their metrics bundles (tenantFor);
	// shedTotal counts every shed decision server-wide.
	tenants   sync.Map
	tenantMu  sync.Mutex
	shedTotal atomic.Uint64

	queues []*slotQueue
	next   atomic.Uint64

	// mu guards closed for Close idempotency; admission liveness is
	// per-queue (slotQueue.closed), which Close sets before releasing
	// the workers so the final drain is exhaustive.
	mu     sync.Mutex
	closed bool
	quit   chan struct{}
	wg     sync.WaitGroup
}

// New builds a server for spec s over a fresh n-slot universal object.
// It accepts the same options as the apram constructors; WithBatchCap,
// WithQueueDepth and WithAdmission tune this layer, everything else
// (probes, recorders, names) is applied to the underlying object as
// usual. Impossible arguments panic with an apram.ArgError.
//
// The underlying object is constructed over apram.BatchSpec(s), so
// its operations are batches; clients never see that — Do takes and
// returns the base spec's invocations and responses.
func New(s apram.Spec, n int, opts ...apram.Option) *Server {
	if n <= 0 {
		panic(&apram.ArgError{Fn: "serve.New", Arg: "n", Value: n, Why: "need at least one process slot"})
	}
	ro := apram.ResolveOptions(opts...)
	if ro.BatchCap < 0 {
		panic(&apram.ArgError{Fn: "serve.New", Arg: "batchCap", Value: ro.BatchCap, Why: "batch cap must be non-negative"})
	}
	if ro.QueueDepth < 0 {
		panic(&apram.ArgError{Fn: "serve.New", Arg: "queueDepth", Value: ro.QueueDepth, Why: "queue depth must be non-negative"})
	}
	switch ro.Admission.Kind {
	case apram.AdmitBlock, apram.AdmitShed:
	case apram.AdmitDeadline:
		if ro.Admission.Wait <= 0 {
			panic(&apram.ArgError{Fn: "serve.New", Arg: "admission", Value: ro.Admission.Wait, Why: "DropAfter bound must be positive"})
		}
	default:
		panic(&apram.ArgError{Fn: "serve.New", Arg: "admission", Value: ro.Admission.Kind, Why: "unknown admission kind"})
	}
	cap := ro.BatchCap
	if cap == 0 {
		cap = DefaultBatchCap
	}
	depth := ro.QueueDepth
	if depth == 0 {
		depth = DefaultQueueDepth
	}

	// Composition is admitted only when the batched spec provably
	// keeps Property 1 over the type's sample invocations; otherwise
	// the server runs singleton batches, which are sound for any
	// Property 1 base spec.
	batching := cap > 1
	if batching {
		sampler, ok := s.(interface{ SampleInvocations() []spec.Inv })
		if !ok {
			batching, cap = false, 1
		} else if ok2, _ := spec.CheckBatchable(s, sampler.SampleInvocations()); !ok2 {
			batching, cap = false, 1
		}
	}

	sv := &Server{
		base:      s,
		n:         n,
		batchCap:  cap,
		depth:     depth,
		batching:  batching,
		admission: ro.Admission,
		probe:     ro.Probe,
		queues:    make([]*slotQueue, n),
		quit:      make(chan struct{}),
	}
	sv.obj = apram.NewObject(apram.BatchSpec(s), n, opts...)
	ro.Register(sv)
	sv.name = apram.NameOf(sv)
	if ro.Telemetry != nil {
		sv.reg = ro.Telemetry
		sv.instrument(ro.Telemetry, sv.name)
	}
	for p := 0; p < n; p++ {
		sv.queues[p] = newSlotQueue(depth)
		sv.wg.Add(1)
		go sv.worker(p)
	}
	return sv
}

// instrument registers the server's metrics under "serve.<name>.*":
// per-slot op-latency and batch-size histograms, a live queue-depth
// gauge, a shed counter gauge, and — when the object truncates —
// retained-entry and lagging-epoch gauges. On the simulated backend
// the registry's clock is switched to the object's step clock, so
// every exported sample is a deterministic function of the schedule.
func (sv *Server) instrument(reg *telemetry.Registry, name string) {
	if sc := sv.obj.StepClock(); sc != nil {
		reg.SetClock(sc)
	}
	sv.clock = reg.Now
	prefix := "serve." + name + "."
	sv.opLat = reg.Histogram(prefix+"op_latency", sv.n)
	sv.batchSize = reg.Histogram(prefix+"batch_size", sv.n)
	reg.GaugeFunc(prefix+"queue_depth", func() uint64 {
		var d int64
		for _, q := range sv.queues {
			d += q.qlen.Load()
		}
		return uint64(d)
	})
	reg.GaugeFunc(prefix+"shed_total", func() uint64 { return sv.shedTotal.Load() })
	if sv.obj.TruncationEnabled() {
		reg.GaugeFunc(prefix+"retained_entries", func() uint64 {
			return uint64(sv.obj.Retained())
		})
		reg.GaugeFunc(prefix+"trunc_lag_epochs", func() uint64 {
			return sv.obj.TruncStats().LaggingEpochs
		})
	}
}

// N returns the number of process slots (worker goroutines).
func (sv *Server) N() int { return sv.n }

// BatchCap returns the effective batch cap: the configured cap, or 1
// when batching was disabled because the spec's batches do not
// preserve Property 1.
func (sv *Server) BatchCap() int { return sv.batchCap }

// QueueDepth returns the per-slot submission queue depth.
func (sv *Server) QueueDepth() int { return sv.depth }

// Batching reports whether the server composes multi-operation
// batches (false when the spec failed CheckBatchable or the cap is 1).
func (sv *Server) Batching() bool { return sv.batching }

// Admission returns the server's admission policy.
func (sv *Server) Admission() apram.Admission { return sv.admission }

// ShedCount returns how many requests the admission policy has shed
// (evicted, rejected, or deadline-dropped) since construction.
func (sv *Server) ShedCount() uint64 { return sv.shedTotal.Load() }

// Object returns the underlying universal object (its spec is
// apram.BatchSpec of the serving spec). Exposed for observability and
// test oracles; invoking it directly while the server runs would
// violate the slots' single-writer discipline.
func (sv *Server) Object() *apram.Object { return sv.obj }

// Do executes one logical operation, blocking until a slot worker
// completes it, the context is cancelled, or the server closes. It is
// DoRequest with no tenant attribution; see DoRequest for the error
// contract.
func (sv *Server) Do(ctx context.Context, inv apram.Inv) (any, error) {
	return sv.DoRequest(ctx, Request{Inv: inv})
}

// DoRequest executes one logical operation with tenant attribution,
// blocking until a slot worker completes it, the admission policy
// refuses it, the context is cancelled, or the server closes.
// Requests are distributed round-robin across slots; operations
// submitted by one goroutine in sequence may land on different slots
// and are ordered only by their batches' linearization points.
//
// Errors are typed:
//
//   - ErrClosed: the server was closed before or while the request
//     was queued.
//   - ErrOverload: the admission policy shed the request — a
//     shed-lowest-priority eviction or rejection, or a drop-after-
//     deadline expiry. Never returned under the default Block policy.
//   - A context error (test with errors.Is against
//     context.Canceled / context.DeadlineExceeded): the caller's
//     context ended while waiting for admission or for the response;
//     the returned error wraps context.Cause(ctx).
//   - *OpError: the batch the request rode in failed to execute (spec
//     panic, malformed batch response).
//
// Cancellation is delivery-bounded: once a worker has picked the
// request up, DoRequest waits for the response even if ctx expires —
// the operation may already be published, and reporting the context
// error then would mask an applied effect.
func (sv *Server) DoRequest(ctx context.Context, r Request) (any, error) {
	req := &request{
		inv:    r.Inv,
		tenant: r.Tenant,
		prio:   r.Priority,
		tm:     sv.tenantFor(r.Tenant),
		done:   make(chan struct{}),
	}
	if sv.clock != nil {
		req.start = sv.clock()
	}
	slot := int(sv.next.Add(1)-1) % sv.n

	if err := sv.admit(ctx, sv.queues[slot], req); err != nil {
		return nil, err
	}

	select {
	case <-req.done:
		return req.resp, req.err
	case <-ctx.Done():
		// The request is enqueued and will be executed or failed by
		// its worker; we just stop waiting for the outcome.
		return nil, fmt.Errorf("serve: response abandoned: %w", context.Cause(ctx))
	}
}

// Close shuts the server down: it stops accepting requests, lets the
// workers drain their queues (pending requests fail with ErrClosed),
// and waits for the workers to exit. Close is idempotent.
func (sv *Server) Close() {
	sv.mu.Lock()
	if sv.closed {
		sv.mu.Unlock()
		return
	}
	sv.closed = true
	sv.mu.Unlock()
	// Mark every queue closed before releasing the workers: admissions
	// racing Close either land before the mark (drained with ErrClosed)
	// or observe it and fail immediately, so the workers' final drain
	// is exhaustive.
	for _, q := range sv.queues {
		q.mu.Lock()
		q.closed = true
		q.mu.Unlock()
	}
	close(sv.quit)
	sv.wg.Wait()
}

// worker is slot p's goroutine: wait for work, top the pending set up
// from the queue, compose a batch, execute it, fan out, repeat.
//
// Composition cherry-picks: the batch is seeded with the OLDEST
// pending request and extended with every pending request that
// commutes with the members so far (up to the cap); the rest stay
// pending for later turns. Reordering across requests is sound
// because each queued request belongs to a distinct client goroutine
// blocked in Do — there is no cross-client ordering to preserve, and
// a single client's next operation only arrives after its previous
// one completed. Seeding with the oldest pending request bounds
// deferral: every request seeds a batch after at most the number of
// turns it spent pending, so nothing starves. Cherry-picking is what
// keeps batches large under mixed workloads — with FIFO-only
// composition a lone read caps an inc-run at the read, collapsing
// amortization (and ballooning the universal construction's
// published history, which the linearization engine pays for
// quadratically on rebuilds).
func (sv *Server) worker(p int) {
	defer sv.wg.Done()
	q := sv.queues[p]
	var pending []*request

	// When the object truncates (WithTruncateEvery), an epoch needs
	// every slot to ack and fold — including slots receiving no
	// traffic. An idle worker therefore wakes periodically and lends
	// its slot to the coordinator via TruncTick; busy workers advance
	// epochs for free at each operation's end, so the ticker only
	// matters for idle slots and its period only bounds how long a
	// quiet slot can stall an epoch.
	var tickC <-chan time.Time
	if sv.obj.TruncationEnabled() {
		tick := time.NewTicker(truncTickInterval)
		defer tick.Stop()
		tickC = tick.C
	}

	for {
		if len(pending) == 0 {
			sv.fill(q, &pending)
			if len(pending) == 0 {
				select {
				case <-q.sig:
					continue
				case <-tickC:
					sv.obj.TruncTick(p)
					continue
				case <-sv.quit:
					sv.drainClosed(q, nil)
					return
				}
			}
		}
		sv.fill(q, &pending)
		// Flush pause: if the queue drain left the batch under-full,
		// yield a few times so clients racing toward this queue can land
		// their sends before the batch is composed. Composition quality
		// is not just a throughput knob — every under-full batch
		// permanently inflates the published history, and the
		// linearization engine's rebuild cost is quadratic in that
		// history, so a burst of tiny batches early in a run taxes every
		// operation after it. The pause is bounded (wait-freedom is
		// per-turn bounded work) and purely local — the Section 2 cost
		// model charges only shared accesses, so waiting is free.
		for spin := 0; len(pending) < sv.batchCap && spin < flushSpins; spin++ {
			runtime.Gosched()
			sv.fill(q, &pending)
		}

		// Drop-after-deadline: a request that sat queued past the
		// policy bound is dropped here, not executed stale — the client
		// behind it has likely given up, and executing its operation
		// anyway would spend a published history slot on an abandoned
		// effect.
		if sv.admission.Kind == apram.AdmitDeadline {
			keep := pending[:0]
			now := time.Now()
			for _, req := range pending {
				if now.Sub(req.enq) > sv.admission.Wait {
					sv.shed(req)
				} else {
					keep = append(keep, req)
				}
			}
			pending = keep
			if len(pending) == 0 {
				continue
			}
		}

		batch := []*request{pending[0]}
		invs := []spec.Inv{pending[0].inv}
		rest := pending[:0]
		for _, req := range pending[1:] {
			if len(batch) < sv.batchCap && spec.CanBatch(sv.base, invs, req.inv) {
				batch = append(batch, req)
				invs = append(invs, req.inv)
			} else {
				rest = append(rest, req)
			}
		}
		pending = rest

		sv.execute(p, batch, invs)

		select {
		case <-sv.quit:
			sv.drainClosed(q, pending)
			return
		default:
		}
	}
}

// fill tops pending up from the queue without blocking, up to the
// batch cap, maintaining the per-tenant queued accounting.
func (sv *Server) fill(q *slotQueue, pending *[]*request) {
	before := len(*pending)
	if q.take(pending, sv.batchCap) == 0 {
		return
	}
	for _, req := range (*pending)[before:] {
		if req.tm != nil {
			req.tm.queued.Add(-1)
		}
	}
}

// drainClosed fails the worker's leftover pending requests and every
// queued request and admission waiter with ErrClosed. It runs after
// Close marked the queue closed, and admit only appends with the mark
// unset — so the queue cannot grow again and the drain is exhaustive.
func (sv *Server) drainClosed(q *slotQueue, pending []*request) {
	for _, req := range pending {
		req.err = ErrClosed
		close(req.done)
	}
	q.mu.Lock()
	reqs := q.reqs
	q.reqs = nil
	q.qlen.Store(0)
	ws := q.waiters
	q.waiters = nil
	q.mu.Unlock()
	for _, req := range reqs {
		if req.tm != nil {
			req.tm.queued.Add(-1)
		}
		req.err = ErrClosed
		close(req.done)
	}
	// Woken waiters retry admission, observe the closed mark, and fail
	// with ErrClosed.
	for _, w := range ws {
		close(w)
	}
}

// execute publishes one composed batch on slot p and fans the inner
// responses out. The batch span (OpBatch) brackets the underlying
// object's own OpExecute span plus the fan-out; EvBatch marks the
// flush and BatchDone reports the batch's size.
func (sv *Server) execute(p int, batch []*request, invs []spec.Inv) {
	if sv.probe != nil {
		sv.probe.OpBegin(p, obs.OpBatch)
	}
	resp, err := sv.run(p, invs)
	var now uint64
	if sv.clock != nil {
		// One clock read per batch: every member completes at the
		// batch's linearization point, so one completion stamp is the
		// honest per-op latency for all of them.
		now = sv.clock()
		sv.batchSize.Record(p, uint64(len(batch)))
	}
	for i, req := range batch {
		if err != nil {
			req.err = err
		} else {
			req.resp = resp[i]
		}
		if sv.clock != nil {
			lat := now - req.start
			sv.opLat.Record(p, lat)
			if req.tm != nil && req.tm.lat != nil {
				// Safe under the histogram's single-writer-per-slot
				// contract: only slot p's worker records slot p.
				req.tm.lat.Record(p, lat)
			}
		}
		close(req.done)
	}
	if sv.probe != nil {
		sv.probe.Event(p, obs.EvBatch)
		sv.probe.BatchDone(p, len(batch))
		sv.probe.OpDone(p, obs.OpBatch)
	}
}

// run executes the batch on the underlying object, converting a spec
// panic (e.g. a malformed invocation) into an *OpError delivered to
// the batch's requests instead of killing the slot worker.
func (sv *Server) run(p int, invs []spec.Inv) (resp []any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &OpError{Name: sv.name, Err: fmt.Errorf("operation panicked: %v", r)}
		}
	}()
	out := sv.obj.Execute(p, spec.BatchInv(invs...))
	rs, ok := out.([]any)
	if !ok || len(rs) != len(invs) {
		return nil, &OpError{Name: sv.name, Err: fmt.Errorf("malformed batch response %T", out)}
	}
	return rs, nil
}
