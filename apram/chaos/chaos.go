// Package chaos is a schedule fuzzer for the repository's wait-free
// structures: it drives them under seeded randomized adversaries with
// injected crash and stall faults, records every run as a replayable
// trace (internal/histio version 2), and checks three oracle families
// against each run:
//
//   - Linearizability. For structures with a sequential specification
//     the recorded history — including operations left pending by
//     crashes, via the Herlihy–Wing completion construction in
//     lincheck.CheckPartial — must linearize.
//   - Wait-freedom. Every completed operation's measured register
//     accesses must stay within its Section 5.4 / 6.2 closed-form
//     bound (apram/obs), regardless of what the adversary did.
//   - Invariants. Structure-specific safety (scan monotonicity and
//     self-inclusion, agreement's Figure 1 conditions, consensus
//     agreement+validity) plus engine self-checks: at most one shared
//     access per scheduler step, and three independent access counters
//     (pram.Counters, an obs.Stats probe, the engine's own tally) that
//     must agree exactly.
//
// Because the recorded schedule is the ground truth (the fault plan is
// provenance metadata — crashes and stalls already manifest in the
// schedule), replaying a trace reproduces the run bit-for-bit: same
// history, same responses, same per-process access counts. That
// determinism is what makes the Shrink delta-debugger sound: every
// candidate trace is re-executed and kept only if the same oracle
// still fails.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/apram/obs"
	"repro/internal/histio"
	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/pram"
	"repro/internal/sched"
)

// Oracle names, recorded in failures and in trace files.
const (
	// OracleLin is the linearizability oracle (internal/lincheck
	// against the structure's internal/spec specification).
	OracleLin = "linearizability"
	// OracleWaitFree is the per-operation access-bound oracle.
	OracleWaitFree = "wait-freedom"
	// OracleInvariant is the structure-specific safety oracle.
	OracleInvariant = "invariant"
	// OraclePanic marks a machine or memory panic (e.g. an ownership
	// violation caught by internal/pram).
	OraclePanic = "panic"
	// OracleEngine marks a harness self-check failure: a scheduler
	// decision outside the running set, more than one shared access in
	// a step, or disagreeing access counters.
	OracleEngine = "engine"
)

// Config parameterizes one generated run.
type Config struct {
	// Structure names the target; see Structures.
	Structure string
	// N is the process count (default 4).
	N int
	// OpsPerProc is the script length per process (default 3); some
	// targets (agreement, consensus, dcsnapshot's scanner) fix their
	// own op counts.
	OpsPerProc int
	// Seed drives everything: scripts, fault plan, base adversary, and
	// any structure-internal randomness.
	Seed int64
	// Adversary picks the base scheduler: "random" (default),
	// "bursty", "priority", or "roundrobin".
	Adversary string
	// Crashes and Stalls are how many faults of each kind to inject.
	Crashes int
	Stalls  int
	// MaxSteps caps the run (0 = derived from the script size).
	MaxSteps int
}

// Failure is one oracle violation.
type Failure struct {
	Oracle string `json:"oracle"`
	Msg    string `json:"msg"`
}

func (f Failure) String() string { return f.Oracle + ": " + f.Msg }

// OpStat is one completed operation's measured cost.
type OpStat struct {
	Proc, Index int
	// Start and End are history timestamps (invocation at scheduler
	// step s stamps 2s+1, response 2s+2, as in pram.RunTimed).
	Start, End int64
	// Accesses is the operation's measured shared-register accesses.
	Accesses uint64
	// Bound is the closed-form limit Accesses was checked against
	// (0 = the operation has none).
	Bound uint64
}

// Report is the outcome of one executed (or replayed) run.
type Report struct {
	// Trace is the complete replayable record of the run.
	Trace *histio.TraceFile
	// History holds the completed operations; Pending the invocations
	// still outstanding when the run ended (crashed or starved).
	History history.History
	Pending []history.Op
	// OpStats lists completed operations in completion order.
	OpStats []OpStat
	// Counters are the memory's own access counters; Stats is the
	// mirrored apram/obs probe. The engine cross-checks them.
	Counters pram.Counters
	Stats    *obs.Stats
	// Spans is the run's flight-recorder timeline: one begin/end pair
	// per operation (Name refined to the scripted op, e.g. "enq") plus
	// the structural events the machines emitted, timestamped by the
	// engine's global step counter — so a replayed trace exports
	// byte-identical spans. See WriteSpanDump.
	Spans []obs.Span
	// Steps is how many scheduler steps the run took.
	Steps int
	// RunErr records why stepping ended early (pram.ErrStopped after a
	// total crash, pram.ErrStepLimit on budget exhaustion) — these are
	// informational, not failures.
	RunErr error
	// LinSkipped is true when the history exceeded the linearizability
	// checker's search bound and that oracle was skipped.
	LinSkipped bool
	// Failures holds every oracle violation, in detection order.
	Failures []Failure
}

// Failed reports whether any oracle failed.
func (r *Report) Failed() bool { return len(r.Failures) > 0 }

// FailsOracle reports whether some failure came from the named oracle.
func (r *Report) FailsOracle(oracle string) bool {
	for _, f := range r.Failures {
		if f.Oracle == oracle {
			return true
		}
	}
	return false
}

// withDefaults fills in unset Config fields.
func (c Config) withDefaults() Config {
	if c.N == 0 {
		c.N = 4
	}
	if c.OpsPerProc == 0 {
		c.OpsPerProc = 3
	}
	if c.Adversary == "" {
		c.Adversary = "random"
	}
	return c
}

// Generate builds the trace for cfg — scripts, fault plan — without
// executing it. The schedule is filled in by Run.
func Generate(cfg Config) (*histio.TraceFile, error) {
	cfg = cfg.withDefaults()
	tg, err := lookupTarget(cfg.Structure)
	if err != nil {
		return nil, err
	}
	if cfg.N < 1 {
		return nil, fmt.Errorf("chaos: %d processes", cfg.N)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	tr := &histio.TraceFile{
		Version:   histio.TraceVersion,
		Structure: tg.name,
		Spec:      tg.specName,
		N:         cfg.N,
		Seed:      cfg.Seed,
	}
	tr.Scripts = make([][]histio.TraceOp, cfg.N)
	for p := 0; p < cfg.N; p++ {
		tr.Scripts[p] = tg.script(rng, cfg, p)
	}
	tr.MaxSteps = cfg.MaxSteps
	if tr.MaxSteps == 0 {
		// Generous: every op allowed several times its worst-case cost,
		// plus slack for stalls. Exhaustion is not a failure; it just
		// leaves operations pending for the partial checker.
		tr.MaxSteps = 200 + 4*tr.TotalOps()*int(obs.ExecuteBound(cfg.N))
	}
	horizon := tr.MaxSteps
	if horizon > 2000 {
		horizon = 2000
	}
	for i := 0; i < cfg.Crashes; i++ {
		tr.Faults = append(tr.Faults, sched.Fault{
			Kind: sched.FaultCrash, Proc: rng.Intn(cfg.N), At: rng.Intn(horizon/2 + 1),
		})
	}
	for i := 0; i < cfg.Stalls; i++ {
		tr.Faults = append(tr.Faults, sched.Fault{
			Kind: sched.FaultStall, Proc: rng.Intn(cfg.N),
			At: rng.Intn(horizon/2 + 1), For: 1 + rng.Intn(horizon/4+1),
		})
	}
	return tr, nil
}

// baseScheduler builds the named adversary, seeded from rng.
func baseScheduler(name string, rng *rand.Rand, n int) (sched.Scheduler, error) {
	switch name {
	case "random":
		return sched.NewRandom(rng.Int63()), nil
	case "bursty":
		return sched.NewBursty(rng.Int63(), 4+rng.Intn(8)), nil
	case "priority":
		return sched.NewPriority(rng.Intn(n), 2+rng.Intn(6)), nil
	case "roundrobin":
		return sched.NewRoundRobin(), nil
	}
	return nil, fmt.Errorf("chaos: unknown adversary %q (have random, bursty, priority, roundrobin)", name)
}

// Run generates a trace from cfg, executes it under the configured
// adversary with the fault plan applied, records the schedule into the
// trace, and returns the oracle-checked report.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	tr, err := Generate(cfg)
	if err != nil {
		return nil, err
	}
	tg, err := lookupTarget(cfg.Structure)
	if err != nil {
		return nil, err
	}
	// The same rng stream as Generate, advanced past the draws Generate
	// made, keeps the whole run a function of cfg.Seed alone.
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eedc4a05))
	base, err := baseScheduler(cfg.Adversary, rng, cfg.N)
	if err != nil {
		return nil, err
	}
	rec := sched.NewTrace(sched.NewFaults(base, tr.Faults))
	rep, err := execute(tg, tr, rec)
	if err != nil {
		return nil, err
	}
	tr.Schedule = rec.Decisions()
	if rep.Failed() {
		tr.Oracle = rep.Failures[0].Oracle
	}
	return rep, nil
}

// Replay re-executes a recorded trace deterministically. The recorded
// schedule is replayed in skip mode: decisions naming finished
// processes are dropped rather than treated as stops, which keeps
// shrunken traces (whose scripts may have lost operations) playable.
func Replay(tr *histio.TraceFile) (*Report, error) {
	tg, err := lookupTarget(tr.Structure)
	if err != nil {
		return nil, err
	}
	if len(tr.Scripts) != tr.N {
		return nil, fmt.Errorf("chaos: trace has %d scripts for %d processes", len(tr.Scripts), tr.N)
	}
	return execute(tg, tr, sched.NewSkipReplay(tr.Schedule))
}

// stepOnce advances process p, converting a machine or memory panic
// into a failure instead of unwinding the harness.
func stepOnce(sys *pram.System, p int) (failure *Failure) {
	defer func() {
		if r := recover(); r != nil {
			failure = &Failure{Oracle: OraclePanic, Msg: fmt.Sprintf("process %d: %v", p, r)}
		}
	}()
	sys.Step(p)
	return nil
}

// execute is the engine: it rebuilds the instance from the trace,
// steps it under sc with full per-operation accounting, and runs every
// oracle. The returned error covers only malformed traces; run-time
// trouble lands in the Report.
func execute(tg *target, tr *histio.TraceFile, sc sched.Scheduler) (*Report, error) {
	inst, err := tg.build(tr)
	if err != nil {
		return nil, err
	}
	n := tr.N
	stats := obs.NewStats(n)
	sys := inst.sys
	// The flight recorder's clock is the engine's global step counter,
	// which is what makes exported spans a pure function of the
	// schedule. The ring is sized so no run within the step budget can
	// overwrite: per slot at most one event per step plus two edges per
	// operation.
	maxOps := 0
	for p := 0; p < n; p++ {
		if k := inst.nops(p); k > maxOps {
			maxOps = k
		}
	}
	rec := obs.NewRecorder(n,
		obs.WithClock(sys.TotalSteps),
		obs.WithSpanCapacity(tr.MaxSteps+2*maxOps+8))
	probe := obs.Multi(stats, rec)
	accBy := make([]uint64, n)
	inst.mem.Observe(
		func(p, r int, v pram.Value) { accBy[p]++; probe.RegReads(p, 1) },
		func(p, r int, v pram.Value) { accBy[p]++; probe.RegWrites(p, 1) },
	)
	// Machines that can report structural events (publishes, retries,
	// rounds) feed the same probe; register counts and op edges stay
	// with the engine, which sees every access through mem.Observe.
	type instrumentable interface{ Instrument(obs.Probe) }
	for _, mc := range sys.Machines {
		if im, ok := mc.(instrumentable); ok {
			im.Instrument(probe)
		}
	}
	rep := &Report{Trace: tr, Stats: stats}
	started := make([]int, n) // step of current op's first grant, -1 if none
	accStart := make([]uint64, n)
	completed := make([]int, n)
	for p := range started {
		started[p] = -1
	}
	step := 0
	for {
		running := sys.Running()
		if len(running) == 0 {
			break
		}
		if tr.MaxSteps > 0 && step >= tr.MaxSteps {
			rep.RunErr = pram.ErrStepLimit
			break
		}
		p := sc.Next(running)
		if p == -1 {
			rep.RunErr = pram.ErrStopped
			break
		}
		if !containsInt(running, p) {
			rep.Failures = append(rep.Failures, Failure{Oracle: OracleEngine,
				Msg: fmt.Sprintf("scheduler chose process %d outside the running set %v", p, running)})
			break
		}
		if started[p] == -1 {
			started[p] = step
			accStart[p] = accBy[p]
			if completed[p] < inst.nops(p) {
				probe.OpBegin(p, inst.opKind)
			}
		}
		pre := accBy[p]
		panicked := stepOnce(sys, p)
		step++
		if d := accBy[p] - pre; d > 1 {
			rep.Failures = append(rep.Failures, Failure{Oracle: OracleEngine,
				Msg: fmt.Sprintf("process %d performed %d shared accesses in one step (cost model allows one)", p, d)})
		}
		prog, ok := sys.Machines[p].(pram.Progress)
		if !ok {
			rep.Failures = append(rep.Failures, Failure{Oracle: OracleEngine,
				Msg: fmt.Sprintf("machine %d does not report operation progress", p)})
			break
		}
		for completed[p] < prog.Completed() {
			i := completed[p]
			accesses := accBy[p] - accStart[p]
			bound := inst.bound(p, i)
			if bound > 0 && accesses > bound {
				rep.Failures = append(rep.Failures, Failure{Oracle: OracleWaitFree,
					Msg: fmt.Sprintf("process %d op %d took %d accesses, wait-freedom bound is %d", p, i, accesses, bound)})
			}
			rep.OpStats = append(rep.OpStats, OpStat{
				Proc: p, Index: i,
				Start:    int64(started[p])*2 + 1,
				End:      int64(step-1)*2 + 2,
				Accesses: accesses,
				Bound:    bound,
			})
			probe.OpDone(p, inst.opKind)
			completed[p]++
			started[p] = -1
			accStart[p] = accBy[p]
		}
		if panicked != nil {
			rep.Failures = append(rep.Failures, *panicked)
			break
		}
	}
	rep.Steps = step
	rep.Counters = inst.mem.Counters()
	rep.Spans = collectSpans(rec, inst, n)

	// Engine self-check: the memory's counters, the obs probe, and the
	// per-process tally must agree exactly.
	for p := 0; p < n; p++ {
		if got := rep.Counters.ReadsBy[p] + rep.Counters.WritesBy[p]; got != accBy[p] {
			rep.Failures = append(rep.Failures, Failure{Oracle: OracleEngine,
				Msg: fmt.Sprintf("process %d: memory counted %d accesses, engine tallied %d", p, got, accBy[p])})
		}
	}
	if stats.Reads() != rep.Counters.Reads || stats.Writes() != rep.Counters.Writes {
		rep.Failures = append(rep.Failures, Failure{Oracle: OracleEngine,
			Msg: fmt.Sprintf("obs probe counted %d/%d reads/writes, memory %d/%d",
				stats.Reads(), stats.Writes(), rep.Counters.Reads, rep.Counters.Writes)})
	}

	// Assemble the history (completed ops, in completion order) and the
	// pending invocations of processes caught mid-operation.
	for id, st := range rep.OpStats {
		name, arg := inst.inv(st.Proc, st.Index)
		rep.History.Ops = append(rep.History.Ops, history.Op{
			ID: id, Proc: st.Proc, Name: name, Arg: arg,
			Resp:  inst.resp(st.Proc, st.Index),
			Start: st.Start, End: st.End,
		})
	}
	id := len(rep.History.Ops)
	for p := 0; p < n; p++ {
		if mc, ok := sys.Machines[p].(pram.Progress); ok && sys.Machines[p].Done() && mc.Completed() != inst.nops(p) {
			rep.Failures = append(rep.Failures, Failure{Oracle: OracleEngine,
				Msg: fmt.Sprintf("process %d finished with %d of %d operations accounted", p, mc.Completed(), inst.nops(p))})
		}
		if started[p] != -1 && completed[p] < inst.nops(p) {
			name, arg := inst.inv(p, completed[p])
			rep.Pending = append(rep.Pending, history.Op{
				ID: id, Proc: p, Name: name, Arg: arg,
				Start: int64(started[p])*2 + 1,
			})
			id++
			// An operation still in flight that has already overspent
			// its bound is a wait-freedom violation even though its
			// response never arrived.
			if bound := inst.bound(p, completed[p]); bound > 0 {
				if accesses := accBy[p] - accStart[p]; accesses > bound {
					rep.Failures = append(rep.Failures, Failure{Oracle: OracleWaitFree,
						Msg: fmt.Sprintf("process %d op %d still pending after %d accesses, wait-freedom bound is %d",
							p, completed[p], accesses, bound)})
				}
			}
		}
	}

	// Linearizability oracle.
	if tg.spec != nil {
		if len(rep.History.Ops)+len(rep.Pending) > lincheck.MaxOps {
			rep.LinSkipped = true
		} else {
			res, err := lincheck.CheckPartial(tg.spec, rep.History, rep.Pending)
			if err != nil {
				rep.Failures = append(rep.Failures, Failure{Oracle: OracleEngine,
					Msg: fmt.Sprintf("history rejected by checker: %v", err)})
			} else if !res.Ok {
				rep.Failures = append(rep.Failures, Failure{Oracle: OracleLin,
					Msg: fmt.Sprintf("no legal linearization of %d completed + %d pending operations (%d states searched)",
						len(rep.History.Ops), len(rep.Pending), res.Explored)})
			}
		}
	}

	// Structure-specific invariants.
	if inst.check != nil {
		rep.Failures = append(rep.Failures, inst.check(rep)...)
	}
	return rep, nil
}

// Shrink minimizes a failing trace by delta debugging: it replays the
// trace to learn which oracle fails, then greedily removes processes,
// trailing operations, and schedule chunks, keeping each candidate
// only if replaying it still fails the same oracle. The result is a
// strictly smaller trace (or the input unchanged if nothing could be
// removed) whose Oracle field names the preserved failure.
func Shrink(tr *histio.TraceFile) (*histio.TraceFile, error) {
	base, err := Replay(tr)
	if err != nil {
		return nil, err
	}
	if !base.Failed() {
		return nil, errors.New("chaos: trace does not fail any oracle; nothing to shrink")
	}
	oracle := base.Failures[0].Oracle
	min := shrinkTrace(tr, func(cand *histio.TraceFile) bool {
		rep, err := Replay(cand)
		return err == nil && rep.FailsOracle(oracle)
	})
	min.Oracle = oracle
	return min, nil
}

// TraceSize is the shrinker's cost metric: scripted operations plus
// schedule decisions. Shrink strictly decreases it whenever it can.
func TraceSize(tr *histio.TraceFile) int { return tr.TotalOps() + len(tr.Schedule) }

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
