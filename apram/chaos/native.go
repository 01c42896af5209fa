package chaos

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/apram/obs"
	"repro/internal/core"
	"repro/internal/histio"
	"repro/internal/history"
	"repro/internal/lincheck"
	"repro/internal/spec"
	"repro/internal/types"
)

// Native backend: the same structures driven as real goroutines over
// sync/atomic registers (core.New) instead of the step-granular
// simulator. Script generation stays a pure function of the seed, but
// execution interleaving is the Go scheduler's — so runs are not
// replayable and there is no schedule to shrink. What the mode buys is
// coverage the simulator cannot give: true parallelism (weak-memory
// visibility, real contention on the atomic snapshot) plus
// goroutine-preemption stall injection, checked against the same
// oracle families — linearizability over a real-time interval history,
// per-operation wait-freedom bounds, and panic-freedom.

// nativeStallSlice is the sleep quantum of an injected stall: long
// enough that the Go scheduler demonstrably runs other goroutines
// through the stalled process's in-flight epoch, short enough that a
// seed sweep stays fast.
const nativeStallSlice = 200 * time.Microsecond

// NativeReport is the outcome of one native-backend run.
type NativeReport struct {
	Structure string
	Seed      int64
	N         int
	// History holds every completed operation, interval-timestamped by
	// a shared atomic clock (sound for linearizability: if op A's end
	// stamp precedes op B's start stamp, A really returned before B was
	// invoked).
	History history.History
	// Crashed lists processes the fault plan stopped early; a native
	// "crash" is a process going silent mid-script (whole operations
	// cannot be severed mid-access on real atomics).
	Crashed []int
	// Stalls counts injected preemption stalls that actually ran.
	Stalls int
	// Trunc is the truncation coordinator's final state (zero-valued
	// phase "disabled" for non-truncating structures); Retained the
	// final live entry count.
	Trunc    core.TruncationStats
	Retained int
	// LinSkipped is true when the history exceeded the checker's bound.
	LinSkipped bool
	Failures   []Failure
}

// Failed reports whether any oracle failed.
func (r *NativeReport) Failed() bool { return len(r.Failures) > 0 }

// nativeTarget resolves a structure name for the native backend:
// every registered sequential type, plus the truncate-* variants of
// the Property-1 types (including the planted-bug ones) and the
// shard-* targets (which RunNative dispatches to runNativeShard). The
// queue and sticky bit have no truncate-* variant: the construction
// promises them nothing, so there is no equivalence to check.
// Machine-granular structures (snapshot, dcsnapshot, agreement,
// consensus, serve-*) are simulator-only.
func nativeTarget(name string) (s types.Sampler, truncate, planted bool, err error) {
	if ss, p, ok := shardNativeTarget(name); ok {
		return ss, false, p, nil
	}
	base, pool := name, types.AllTypes()
	if rest, ok := strings.CutPrefix(base, "truncate-"); ok {
		truncate, pool = true, types.Property1Types()
		base = rest
		if trimmed, ok := strings.CutSuffix(base, "-bug"); ok {
			planted = true
			base = trimmed
		}
	}
	for _, t := range pool {
		if t.Name() == base {
			return t, truncate, planted, nil
		}
	}
	return nil, false, false, fmt.Errorf("chaos: structure %q has no native backend (native mode drives the sequential types and the truncate-* variants of the Property-1 types)", name)
}

// NativeStructures lists the structure names RunNative accepts.
func NativeStructures() []string {
	var out []string
	for _, t := range types.AllTypes() {
		out = append(out, t.Name())
	}
	for _, t := range types.Property1Types() {
		out = append(out, "truncate-"+t.Name())
	}
	out = append(out, "truncate-counter-bug", "shard-counter", "shard-gset", "shard-counter-bug")
	return out
}

// RunNative executes one configuration on the native backend. Script
// and fault-plan generation are a pure function of cfg (same generator
// alphabet as the simulated targets); the interleaving is the Go
// scheduler's. Crashes stop a process partway through its script;
// stalls put a process to sleep between operations — with truncation
// enabled that parks epochs mid-phase while the others keep serving,
// which is exactly the window the protocol must survive.
func RunNative(cfg Config) (*NativeReport, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 1 {
		return nil, fmt.Errorf("chaos: %d processes", cfg.N)
	}
	if ss, planted, ok := shardNativeTarget(cfg.Structure); ok {
		return runNativeShard(cfg, ss, planted)
	}
	s, doTrunc, planted, err := nativeTarget(cfg.Structure)
	if err != nil {
		return nil, err
	}
	n := cfg.N
	specName := s.Name()
	pl, err := newNativePlan(cfg, specName, func(rng *rand.Rand) histio.TraceOp { return genSpecOp(rng, specName) })
	if err != nil {
		return nil, err
	}

	u := core.New(s, n)
	probe := obs.NewStats(n)
	u.Instrument(probe)
	if doTrunc {
		u.EnableTruncation(truncEvery)
		if planted {
			u.Truncation().SetUnsafe()
		}
	}

	rep := pl.report(cfg)
	var clock, stalls atomic.Int64
	recs := make([][]nativeOp, n)
	runProcs(rep, n, func(p int) error {
		prng := rand.New(rand.NewSource(cfg.Seed ^ int64(p)<<20))
		for i := 0; i < pl.cut[p]; i++ {
			stall(pl.stallBefore[p][i], &stalls)
			// Preemption pressure: frequently yield the processor so
			// operations genuinely interleave even on short scripts.
			if prng.Intn(2) == 0 {
				runtime.Gosched()
			}
			inv := pl.scripts[p][i]
			before := probe.AccessesBy(p)
			start := clock.Add(1)
			resp := u.Execute(p, inv)
			end := clock.Add(1)
			bound := obs.ExecuteBound(n)
			if spec.IsPure(s, inv) {
				bound = obs.PureExecuteBound(n)
			}
			recs[p] = append(recs[p], nativeOp{inv: inv, resp: resp, start: start, end: end,
				accesses: probe.AccessesBy(p) - before, bound: bound})
		}
		// A finished (but not crashed) process lends its idle slot to
		// pending epochs, like a serve worker's idle ticker.
		if doTrunc && pl.finishes(p) {
			for j := 0; j < 2*n; j++ {
				u.TruncTick(p)
				runtime.Gosched()
			}
		}
		return nil
	})
	rep.Stalls = int(stalls.Load())

	// Post-run: drive any still-pending epoch home from the surviving
	// slots (crashed processes stay silent forever — an epoch waiting on
	// one must simply never complete, which is safe). A fold verdict can
	// panic here as in a process's own turn, and is reported the same
	// way.
	if doTrunc && len(rep.Failures) == 0 {
		func() {
			defer func() {
				if r := recover(); r != nil {
					rep.Failures = append(rep.Failures, Failure{Oracle: OraclePanic,
						Msg: fmt.Sprintf("post-run truncation tick: %v", r)})
				}
			}()
			for round := 0; round < 4*n; round++ {
				for p := 0; p < n; p++ {
					if pl.finishes(p) {
						u.TruncTick(p)
					}
				}
				if u.TruncStats().Phase == "idle" {
					break
				}
			}
		}()
	}
	rep.Trunc = u.TruncStats()
	rep.Retained = u.Retained()

	rep.addHistory(recs)
	rep.checkLin(s)
	return rep, nil
}

// nativePlan is a native run's fault plan, a pure function of the
// configuration: each process's script, how many of its operations it
// runs before its crash (all of them when it does not crash), and how
// many stall slices it sleeps before each operation.
type nativePlan struct {
	scripts     [][]spec.Inv
	cut         []int
	stallBefore []map[int]int
}

// newNativePlan draws the plan from cfg.Seed: the scripts, generated
// by gen over specName's alphabet, then the crash cuts, then the stall
// points.
func newNativePlan(cfg Config, specName string, gen func(*rand.Rand) histio.TraceOp) (*nativePlan, error) {
	n := cfg.N
	rng := rand.New(rand.NewSource(cfg.Seed))
	pl := &nativePlan{scripts: make([][]spec.Inv, n), cut: make([]int, n), stallBefore: make([]map[int]int, n)}
	for p := range pl.scripts {
		pl.scripts[p] = make([]spec.Inv, cfg.OpsPerProc)
		for i := range pl.scripts[p] {
			op := gen(rng)
			arg, _, err := histio.NormalizeOp(specName, op.Name, op.Arg, nil)
			if err != nil {
				return nil, fmt.Errorf("chaos: process %d op %d: %w", p, i, err)
			}
			pl.scripts[p][i] = spec.Inv{Op: op.Name, Arg: arg}
		}
		pl.cut[p] = len(pl.scripts[p])
		pl.stallBefore[p] = map[int]int{}
	}
	for i := 0; i < cfg.Crashes; i++ {
		p := rng.Intn(n)
		if c := rng.Intn(len(pl.scripts[p]) + 1); c < pl.cut[p] {
			pl.cut[p] = c
		}
	}
	for i := 0; i < cfg.Stalls; i++ {
		p := rng.Intn(n)
		pl.stallBefore[p][rng.Intn(len(pl.scripts[p])+1)] += 1 + rng.Intn(4)
	}
	return pl, nil
}

// finishes reports whether process p runs its whole script.
func (pl *nativePlan) finishes(p int) bool { return pl.cut[p] == len(pl.scripts[p]) }

// report starts the run's report, listing the processes the plan
// crashes.
func (pl *nativePlan) report(cfg Config) *NativeReport {
	rep := &NativeReport{Structure: cfg.Structure, Seed: cfg.Seed, N: cfg.N}
	for p := range pl.cut {
		if !pl.finishes(p) {
			rep.Crashed = append(rep.Crashed, p)
		}
	}
	return rep
}

// stall sleeps k stall slices, counting them in ran.
func stall(k int, ran *atomic.Int64) {
	ran.Add(int64(k))
	for j := 0; j < k; j++ {
		time.Sleep(nativeStallSlice)
	}
}

// runProcs runs body for each of n processes on its own goroutine and
// waits for all of them. It reports each process's panic, then each
// error a process returned, as a failure.
func runProcs(rep *NativeReport, n int, body func(p int) error) {
	panics := make([]any, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panics[p] = r
				}
			}()
			errs[p] = body(p)
		}(p)
	}
	wg.Wait()
	for p, r := range panics {
		if r != nil {
			rep.Failures = append(rep.Failures, Failure{Oracle: OraclePanic,
				Msg: fmt.Sprintf("process %d: %v", p, r)})
		}
	}
	for _, err := range errs {
		if err != nil {
			rep.Failures = append(rep.Failures, Failure{Oracle: OracleEngine,
				Msg: classifyDoErr(err) + ": " + err.Error()})
		}
	}
}

// nativeOp is one completed operation of a native run, its interval
// stamped by the run's shared clock. A nonzero bound is the
// wait-freedom bound on its register accesses.
type nativeOp struct {
	inv             spec.Inv
	resp            any
	start, end      int64
	accesses, bound uint64
}

// addHistory appends every process's completed operations to the
// report's interval history, process by process, and reports each
// operation over its wait-freedom bound.
func (rep *NativeReport) addHistory(recs [][]nativeOp) {
	for p := range recs {
		for i, r := range recs[p] {
			rep.History.Ops = append(rep.History.Ops, history.Op{
				ID: len(rep.History.Ops), Proc: p, Name: r.inv.Op, Arg: r.inv.Arg,
				Resp: r.resp, Start: r.start, End: r.end,
			})
			if r.bound > 0 && r.accesses > r.bound {
				rep.Failures = append(rep.Failures, Failure{Oracle: OracleWaitFree,
					Msg: fmt.Sprintf("process %d op %d took %d accesses, wait-freedom bound is %d",
						p, i, r.accesses, r.bound)})
			}
		}
	}
}

// checkLin checks the history for a linearization legal under s over
// its real-time interval order, or marks the check skipped when the
// history exceeds the checker's bound.
func (rep *NativeReport) checkLin(s spec.Spec) {
	if len(rep.History.Ops) > lincheck.MaxOps {
		rep.LinSkipped = true
		return
	}
	res, err := lincheck.CheckPartial(s, rep.History, nil)
	if err != nil {
		rep.Failures = append(rep.Failures, Failure{Oracle: OracleEngine,
			Msg: fmt.Sprintf("history rejected by checker: %v", err)})
	} else if !res.Ok {
		rep.Failures = append(rep.Failures, Failure{Oracle: OracleLin,
			Msg: fmt.Sprintf("no legal linearization of %d completed operations (%d states searched)",
				len(rep.History.Ops), res.Explored)})
	}
}
