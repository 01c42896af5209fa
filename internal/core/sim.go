package core

import (
	"fmt"

	"repro/apram/obs"
	"repro/internal/lattice"
	"repro/internal/pram"
	"repro/internal/snapshot"
	"repro/internal/spec"
)

// SimUniversal is the shared configuration of a universal object's
// machines: the specification, the anchor array's snapshot layout, and
// the tagged-vector lattice. It is immutable after construction and
// shared by all process machines (and their clones), on either
// substrate.
type SimUniversal struct {
	Spec spec.Spec
	Lay  snapshot.Layout
	VL   lattice.Vector
}

// NewSim lays out an n-process universal object starting at register
// base and installs its registers in m (simulated or native).
func NewSim(s spec.Spec, n, base int, m pram.Memory) *SimUniversal {
	vl := lattice.Vector{N: n}
	lay := snapshot.Layout{Base: base, N: n}
	lay.Install(m, vl)
	return &SimUniversal{Spec: s, Lay: lay, VL: vl}
}

// Regs returns how many registers the object occupies.
func (u *SimUniversal) Regs() int { return u.Lay.Regs() }

type simPhase int

const (
	simIdle simPhase = iota
	simReading
	simPublishing
)

// Machine executes a script of invocations for one process of a
// universal object — the construction's only body, driven by the
// explorer, the chaos harness, and Universal on either substrate.
// Each operation is Figure 4 verbatim:
// one atomic scan (ReadMax) of the anchor array, a local response
// computation, then one Write_L publishing the new entry. Both shared
// steps delegate to the Section 6 ScanMachine, so an operation's cost
// is exactly two optimized scans: 2(n²−1) reads and 2(n+1) writes —
// the O(n²) synchronization overhead Section 5.4 promises.
type Machine struct {
	u    *SimUniversal
	proc int
	scan *snapshot.ScanMachine
	lin  *Linearizer // per-machine incremental engine (local caches only)

	script  []spec.Inv // full script; Results()[i] answers script[i]
	next    int        // index of the next unstarted invocation
	results []any
	seq     uint64
	ph      simPhase
	cur     spec.Inv
	pending *Entry

	// record, when set by tests, captures each operation's scan view
	// and linearized history so schedules explored under pram.Explore
	// can be re-validated against the uncached reference Respond.
	record   bool
	recViews [][]*Entry
	recHists [][]*Entry

	// probe, when set, receives the structural events of Figure 4's
	// phases (publish, pure-elide, linearizer rebuild). Register counts
	// and op begin/end are owned by the caller stepping the machine —
	// the memory already counts every access — so the machine reports
	// only what the caller cannot see from outside.
	probe obs.Probe

	// tr, when set, is the truncation coordinator shared by every
	// machine of the object; lastView is the current operation's scan
	// view, saved for the op-end hook. Truncation advances only at the
	// machines' turn boundaries — it performs no shared accesses of its
	// own, so the step trace is bit-identical to an untruncated run.
	tr       *Truncation
	lastView []*Entry
}

// NewMachine returns a machine for process proc with the given
// invocation script. Additional invocations may be appended with
// Enqueue before the machine runs dry.
func NewMachine(u *SimUniversal, proc int, script []spec.Inv) *Machine {
	return &Machine{
		u:      u,
		proc:   proc,
		scan:   snapshot.NewScanMachine(proc, u.Lay, u.VL, true),
		lin:    NewLinearizer(u.Spec),
		script: append([]spec.Inv(nil), script...),
	}
}

// Enqueue appends an invocation to the script.
func (mc *Machine) Enqueue(inv spec.Inv) { mc.script = append(mc.script, inv) }

// Instrument attaches a probe for structural events (obs.EvPublish,
// obs.EvPureElide, obs.EvLinRebuild). Clones share the probe.
func (mc *Machine) Instrument(p obs.Probe) { mc.probe = p }

// SetIncremental toggles the machine's incremental linearization fast
// path (see Universal.SetIncremental); responses and the shared-access
// trace are identical either way.
func (mc *Machine) SetIncremental(on bool) { mc.lin.SetIncremental(on) }

// LinStats returns the machine's linearization-engine counters.
func (mc *Machine) LinStats() LinStats { return mc.lin.Stats() }

// SetTruncation attaches a truncation coordinator. Every machine of
// the object must share the same coordinator, attached before any
// steps run. A truncation-enabled machine cannot be cloned.
func (mc *Machine) SetTruncation(tr *Truncation) { mc.tr = tr }

// Retained returns the machine's live entry-graph footprint; safe
// from any goroutine (see Linearizer.Retained).
func (mc *Machine) Retained() int { return mc.lin.Retained() }

// Invocation returns the i-th scripted invocation; Results()[i] is its
// response once completed.
func (mc *Machine) Invocation(i int) spec.Inv { return mc.script[i] }

// run executes inv to completion on m from the calling goroutine —
// native Universal.Execute's driver — and returns its response.
func (mc *Machine) run(inv spec.Inv, m pram.Memory) any {
	defer mc.reset()
	mc.Enqueue(inv)
	for !mc.Done() {
		mc.Step(m)
	}
	return mc.results[0]
}

// reset returns the machine to idle with an empty script and result
// log, so an Enqueue-fed machine's footprint is bounded by its
// in-flight work — the local-state counterpart of the entry graph's
// checkpoint-and-truncate protocol. Universal's drivers defer it
// around every operation, so it also abandons an operation whose step
// panicked (a malformed invocation reaching the specification):
// otherwise the slot would stay mid-operation and every later Execute
// or TruncTick on it would panic too. An invocation can only panic
// between the inner scans, in Linearizer.Respond before anything is
// published, so the scan machine is idle and the abandoned operation
// leaves no trace in shared memory. Script-driven harnesses index
// results by operation number and must not call it.
func (mc *Machine) reset() {
	clear(mc.script)
	clear(mc.results)
	mc.script, mc.results = mc.script[:0], mc.results[:0]
	mc.next, mc.ph, mc.pending, mc.lastView = 0, simIdle, nil, nil
}

// Results returns the responses of completed operations, in order.
func (mc *Machine) Results() []any { return mc.results }

// Completed returns the number of finished operations (pram.Progress).
func (mc *Machine) Completed() int { return len(mc.results) }

// Done reports whether the script is exhausted.
func (mc *Machine) Done() bool { return mc.ph == simIdle && mc.next == len(mc.script) }

// Clone returns an independent copy. Entries are immutable and shared.
// The linearization engine is NOT copied — the clone starts with a
// fresh one. Its contents are pure memoization of the immutable entry
// graph, so dropping them changes no response; sharing one across
// diverging schedule branches would be unsound (branches observe
// different view sequences), and explorer branches are typically short
// enough that rebuilding is cheap.
func (mc *Machine) Clone() pram.Machine {
	if mc.tr != nil {
		// A clone's fresh linearizer would rediscover the entry graph
		// from the anchors — and after a truncation cut the folded
		// prefix is gone, so the rebuilt state would be wrong. The
		// explorer (the only cloning driver) does not run truncation.
		panic("core: cannot clone a truncation-enabled machine")
	}
	cp := *mc
	cp.scan = mc.scan.Clone().(*snapshot.ScanMachine)
	cp.lin = NewLinearizer(mc.u.Spec)
	cp.script = append([]spec.Inv(nil), mc.script...)
	cp.results = append([]any(nil), mc.results...)
	cp.recViews = append([][]*Entry(nil), mc.recViews...)
	cp.recHists = append([][]*Entry(nil), mc.recHists...)
	return &cp
}

// truncTick lends the idle machine's turn to a pending truncation
// epoch (see Universal.TruncTick). When a fold waits on entries the
// machine has not observed, it first runs one complete anchor-array
// scan synchronously — charged to the machine's process like any
// other steps — folds the view into its linearizer, and reports that
// it scanned.
func (mc *Machine) truncTick(m pram.Memory) (scanned bool) {
	if mc.ph != simIdle {
		panic("core: TruncTick mid-operation")
	}
	if scanned = mc.tr.needsRefresh(mc.proc, mc.lin); scanned {
		mc.scan.Enqueue(mc.u.VL.Bottom())
		for !mc.scan.Done() {
			mc.scan.Step(m)
		}
		if err := mc.lin.Refresh(viewOf(mc.takeScan())); err != nil {
			panic("core: " + err.Error())
		}
	}
	mc.tr.tick(mc.proc, mc.lin, mc.probe)
	return scanned
}

// takeScan consumes the completed inner scan's result, so the scan
// machine's result log never outgrows one operation.
func (mc *Machine) takeScan() lattice.Vec {
	rs := mc.scan.Results()
	last := rs[len(rs)-1].(lattice.Vec)
	mc.scan.DropResults()
	return last
}

// Step performs the machine's next shared-memory access.
func (mc *Machine) Step(m pram.Memory) {
	switch mc.ph {
	case simIdle:
		if mc.next == len(mc.script) {
			panic("core: Step after Done")
		}
		mc.cur = mc.script[mc.next]
		mc.next++
		// Step 1 of Figure 4: atomic scan of the anchor array.
		mc.scan.Enqueue(mc.u.VL.Bottom())
		mc.ph = simReading
	case simReading, simPublishing:
	default:
		panic("core: corrupt phase")
	}
	mc.scan.Step(m)
	if mc.scan.Done() {
		mc.afterScan()
	}
}

// afterScan advances the operation once the inner scan completes.
func (mc *Machine) afterScan() {
	last := mc.takeScan()
	switch mc.ph {
	case simReading:
		view := viewOf(last)
		if mc.tr != nil {
			mc.lastView = view
		}
		rebuildsBefore := mc.lin.Stats().Rebuilds
		resp, hist, err := mc.lin.Respond(view, mc.cur)
		if err != nil {
			panic("core: " + err.Error())
		}
		if mc.probe != nil && mc.lin.Stats().Rebuilds > rebuildsBefore {
			mc.probe.Event(mc.proc, obs.EvLinRebuild)
		}
		if mc.record {
			// The engine owns hist's backing array; copy for posterity.
			mc.recViews = append(mc.recViews, append([]*Entry(nil), view...))
			mc.recHists = append(mc.recHists, append([]*Entry(nil), hist...))
		}
		if spec.IsPure(mc.u.Spec, mc.cur) {
			// Pure operations complete at the scan; nothing to publish.
			if mc.probe != nil {
				mc.probe.Event(mc.proc, obs.EvPureElide)
			}
			mc.results = append(mc.results, resp)
			mc.ph = simIdle
			if mc.tr != nil {
				mc.tr.opEnd(mc.proc, mc.lastView, mc.lin, mc.probe)
			}
			return
		}
		mc.pending = &Entry{
			Proc: mc.proc, Seq: nextSeq(view, mc.seq),
			Inv: mc.cur, Resp: resp, Prev: view,
		}
		// Step 2 of Figure 4: publish the entry via Write_L.
		mc.seq = mc.pending.Seq
		mc.scan.Enqueue(mc.u.VL.Single(mc.proc, mc.pending.Seq, mc.pending))
		mc.ph = simPublishing
	case simPublishing:
		if mc.probe != nil {
			mc.probe.Event(mc.proc, obs.EvPublish)
		}
		mc.results = append(mc.results, mc.pending.Resp)
		mc.pending = nil
		mc.ph = simIdle
		if mc.tr != nil {
			mc.tr.notePublish(mc.proc)
			mc.tr.opEnd(mc.proc, mc.lastView, mc.lin, mc.probe)
		}
	default:
		panic(fmt.Sprintf("core: scan finished in phase %d", mc.ph))
	}
}

// OpReads is the exact per-operation read count of the simulated
// universal object for a non-pure operation: two optimized scans.
func OpReads(n int) uint64 { return 2 * snapshot.OptimizedReads(n) }

// OpWrites is the exact per-operation write count for a non-pure
// operation: two optimized scans.
func OpWrites(n int) uint64 { return 2 * snapshot.OptimizedWrites(n) }

// PureOpReads is the read count for a pure (unpublished) operation:
// one optimized scan.
func PureOpReads(n int) uint64 { return snapshot.OptimizedReads(n) }

// PureOpWrites is the write count for a pure operation: one optimized
// scan.
func PureOpWrites(n int) uint64 { return snapshot.OptimizedWrites(n) }
