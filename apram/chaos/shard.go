package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/apram"
	"repro/apram/obs"
	"repro/apram/serve"
	"repro/apram/shard"
	"repro/internal/core"
	"repro/internal/histio"
	"repro/internal/lattice"
	"repro/internal/lincheck"
	"repro/internal/pram"
	"repro/internal/snapshot"
	"repro/internal/spec"
	"repro/internal/types"
)

// shardS is the shard count of the shard-* targets. Two is the
// smallest count with a cross-shard composition problem, and the
// script alphabets below are chosen so both shards hold keys under
// spec.PartitionIndex.
const shardS = 2

// genShardOp generates one operation for the shard targets: keyed
// operations plus cross-shard pure reads. Key alphabets are sized so
// keys provably spread across both shards. Cross-shard mutators
// (vzero, clear) are emitted only when crossMut is set — the native
// substrate drives them through the real write-lock quiesce path; the
// simulated target omits them because quiescing is a lock protocol,
// not a register protocol, and has no step-granular representation
// (the optimistic snapshot composition is what the simulated target
// exists to adversarially schedule).
func genShardOp(rng *rand.Rand, specName string, crossMut bool) histio.TraceOp {
	switch specName {
	case "kcounter":
		key := func() string { return string(rune('k' + rng.Intn(4))) }
		switch d := rng.Intn(20); {
		case d < 8:
			return histio.TraceOp{Name: types.OpVInc,
				Arg: map[string]any{"K": key(), "D": int64(1 + rng.Intn(5))}}
		case d < 11:
			return histio.TraceOp{Name: types.OpVInc,
				Arg: map[string]any{"K": key(), "D": int64(-1 - rng.Intn(3))}}
		case d < 15:
			return histio.TraceOp{Name: types.OpVRead, Arg: key()}
		case d < 19 || !crossMut:
			return histio.TraceOp{Name: types.OpVSum}
		default:
			return histio.TraceOp{Name: types.OpVZero}
		}
	case "gset":
		letter := func() string { return string(rune('a' + rng.Intn(5))) }
		switch d := rng.Intn(20); {
		case d < 9:
			return histio.TraceOp{Name: types.OpAdd, Arg: letter()}
		case d < 18 || !crossMut:
			return histio.TraceOp{Name: types.OpMembers}
		default:
			return histio.TraceOp{Name: types.OpClear}
		}
	}
	panic("chaos: no shard generator for spec " + specName)
}

type shardPhase int

const (
	shIdle     shardPhase = iota
	shKeyed               // keyed op running on its shard's machine
	shTagsPre             // collecting root tags before the sub-reads
	shSub                 // per-shard sub-read running
	shTagsPost            // collecting root tags after the sub-reads
)

// shardMachine executes one process's script against S independent
// simulated universal objects laid out side by side in one shared
// memory — the step-granular model of the shard layer. Keyed
// operations run on their key's object alone. Cross-shard pure reads
// run the optimistic snapshot composition exactly as apram/shard's
// native path does: read every object's root tag (the shard-slot cell
// scan[q][0], whose component-q Lamport stamp is bumped by the FIRST
// register write of every publication — see the write order in
// snapshot.ScanMachine.Step), run the per-shard sub-reads, read the
// tags again, and accept the merged response only if no tag moved;
// otherwise retry. Equal collects witness that no publication's
// visibility edge fell inside the window, so every sub-read saw
// exactly the publications stamped before it — one global instant.
//
// With planted set the second collect is skipped (the first is never
// taken): sub-reads are composed naively, admitting merged responses
// no instant exhibits — the cross-shard snapshot bug the
// linearizability oracle must catch.
type shardMachine struct {
	proc    int
	s, n    int
	part    spec.Partitionable
	us      []*core.SimUniversal // shared layouts, one per shard
	cms     []*core.Machine      // this process's machine per shard
	planted bool

	script  []spec.Inv
	next    int
	results []any

	ph       shardPhase
	cur      spec.Inv
	curShard int      // shKeyed: which shard runs the op
	want     int      // inner Completed() target for the running sub-op
	tagIdx   int      // progress through a tag collect, 0..s*n
	pre      []uint64 // first collect
	post     []uint64 // second collect
	parts    []any    // per-shard sub-read responses
	subShard int
}

func newShardMachine(proc int, us []*core.SimUniversal, part spec.Partitionable,
	script []spec.Inv, n int, planted bool) *shardMachine {
	s := len(us)
	cms := make([]*core.Machine, s)
	for i, u := range us {
		cms[i] = core.NewMachine(u, proc, nil)
	}
	return &shardMachine{
		proc: proc, s: s, n: n, part: part, us: us, cms: cms,
		planted: planted, script: script,
		pre: make([]uint64, s*n), post: make([]uint64, s*n),
		parts: make([]any, s),
	}
}

// readTag performs one tag-collect access: read shard (tagIdx/n)'s
// cell scan[q][0] for q = tagIdx%n and record component q's stamp.
func (sm *shardMachine) readTag(m pram.Memory, dst []uint64) {
	i, q := sm.tagIdx/sm.n, sm.tagIdx%sm.n
	v := m.Read(sm.proc, sm.us[i].Lay.Reg(q, 0)).(lattice.Vec)
	dst[sm.tagIdx] = v[q].Tag
	sm.tagIdx++
}

// startSub begins the sub-read on shard subShard (no shared access).
func (sm *shardMachine) startSub() {
	cm := sm.cms[sm.subShard]
	sm.want = cm.Completed() + 1
	cm.Enqueue(sm.cur)
	sm.ph = shSub
}

// finish completes the current cross-shard read with the merged
// response.
func (sm *shardMachine) finish() {
	sm.results = append(sm.results, sm.part.MergeResponses(sm.cur, sm.parts))
	sm.ph = shIdle
}

// Step performs the machine's next shared-memory access (exactly one
// register read or write, or a delegated inner-machine step).
func (sm *shardMachine) Step(m pram.Memory) {
	switch sm.ph {
	case shIdle:
		if sm.next == len(sm.script) {
			panic("chaos: shard machine Step after Done")
		}
		sm.cur = sm.script[sm.next]
		sm.next++
		if key, keyed := sm.part.PartitionKey(sm.cur); keyed {
			sm.curShard = spec.PartitionIndex(key, sm.s)
			cm := sm.cms[sm.curShard]
			sm.want = cm.Completed() + 1
			cm.Enqueue(sm.cur)
			sm.ph = shKeyed
			cm.Step(m)
			sm.afterKeyed()
			return
		}
		sm.subShard = 0
		if sm.planted {
			// Planted: no validating collects at all — straight to the
			// naive per-shard compose.
			sm.startSub()
			sm.cms[0].Step(m)
			sm.afterSub()
			return
		}
		sm.ph = shTagsPre
		sm.tagIdx = 0
		sm.readTag(m, sm.pre)

	case shKeyed:
		sm.cms[sm.curShard].Step(m)
		sm.afterKeyed()

	case shTagsPre:
		sm.readTag(m, sm.pre)
		if sm.tagIdx == sm.s*sm.n {
			sm.subShard = 0
			sm.startSub()
		}

	case shSub:
		sm.cms[sm.subShard].Step(m)
		sm.afterSub()

	case shTagsPost:
		sm.readTag(m, sm.post)
		if sm.tagIdx == sm.s*sm.n {
			for i := range sm.pre {
				if sm.pre[i] != sm.post[i] {
					// Unstable window: a publication landed mid-read.
					// Retry from a fresh first collect.
					sm.ph = shTagsPre
					sm.tagIdx = 0
					return
				}
			}
			sm.finish()
		}

	default:
		panic("chaos: corrupt shard machine phase")
	}
}

func (sm *shardMachine) afterKeyed() {
	cm := sm.cms[sm.curShard]
	if cm.Completed() < sm.want {
		return
	}
	sm.results = append(sm.results, cm.Results()[sm.want-1])
	sm.ph = shIdle
}

func (sm *shardMachine) afterSub() {
	cm := sm.cms[sm.subShard]
	if cm.Completed() < sm.want {
		return
	}
	sm.parts[sm.subShard] = cm.Results()[sm.want-1]
	sm.subShard++
	if sm.subShard < sm.s {
		sm.startSub()
		return
	}
	if sm.planted {
		sm.finish()
		return
	}
	sm.ph = shTagsPost
	sm.tagIdx = 0
}

func (sm *shardMachine) Done() bool     { return sm.ph == shIdle && sm.next == len(sm.script) }
func (sm *shardMachine) Completed() int { return len(sm.results) }

// Instrument forwards the probe to every per-shard inner machine.
func (sm *shardMachine) Instrument(p obs.Probe) {
	for _, cm := range sm.cms {
		cm.Instrument(p)
	}
}

// Clone is unsupported: the chaos engine never clones machines.
func (sm *shardMachine) Clone() pram.Machine {
	panic("chaos: shard machines are not cloneable")
}

// shardTarget drives the sharded universal construction's cross-shard
// composition under the chaos scheduler: shardS independent anchor
// arrays in one memory, keyed operations routed by spec.PartitionIndex,
// cross-shard pure reads composed via the tag-validated optimistic
// snapshot (or, with planted set, the naive unvalidated compose — the
// cross-shard snapshot bug). The linearizability oracle checks the
// merged responses against the unpartitioned sequential spec, which is
// exactly the claim the shard layer makes: the split is invisible.
//
// Wait-freedom bounds apply to keyed operations (they are ordinary
// universal-construction operations on one shard); cross-shard reads
// carry bound 0 — the optimistic validator retries until the window is
// quiet, so its access count is schedule-dependent by design (the real
// implementation bounds retries by falling back to a lock, which has
// no step-granular representation).
func shardTarget(name string, s types.Sampler, planted bool) *target {
	specName := s.Name()
	if planted {
		name += "-bug"
	}
	part, ok := spec.AsPartitionable(s)
	if !ok {
		panic("chaos: shard target over non-partitionable spec " + specName)
	}
	return &target{
		name:     name,
		specName: specName,
		spec:     s,
		script: func(rng *rand.Rand, cfg Config, proc int) []histio.TraceOp {
			ops := make([]histio.TraceOp, cfg.OpsPerProc)
			for i := range ops {
				ops[i] = genShardOp(rng, specName, false)
			}
			return ops
		},
		build: func(tr *histio.TraceFile) (*instance, error) {
			n := tr.N
			regs := (snapshot.Layout{N: n}).Regs()
			mem := pram.NewMem(shardS*regs, n)
			us := make([]*core.SimUniversal, shardS)
			for i := range us {
				us[i] = core.NewSim(s, n, i*regs, mem)
			}
			sms := make([]*shardMachine, n)
			machines := make([]pram.Machine, n)
			scripts := make([][]spec.Inv, n)
			for p := 0; p < n; p++ {
				invs := make([]spec.Inv, len(tr.Scripts[p]))
				for i, op := range tr.Scripts[p] {
					arg, _, err := histio.NormalizeOp(specName, op.Name, op.Arg, nil)
					if err != nil {
						return nil, fmt.Errorf("chaos: process %d op %d: %w", p, i, err)
					}
					invs[i] = spec.Inv{Op: op.Name, Arg: arg}
				}
				scripts[p] = invs
				sms[p] = newShardMachine(p, us, part, invs, n, planted)
				machines[p] = sms[p]
			}
			return &instance{
				mem:  mem,
				sys:  pram.NewSystem(mem, machines),
				nops: func(p int) int { return len(scripts[p]) },
				inv: func(p, i int) (string, any) {
					return scripts[p][i].Op, scripts[p][i].Arg
				},
				resp: func(p, i int) any { return sms[p].results[i] },
				bound: func(p, i int) uint64 {
					if _, keyed := part.PartitionKey(scripts[p][i]); !keyed {
						return 0
					}
					if spec.IsPure(s, scripts[p][i]) {
						return obs.PureExecuteBound(n)
					}
					return obs.ExecuteBound(n)
				},
				opKind: obs.OpExecute,
			}, nil
		},
	}
}

// shardNativeTarget resolves a shard-* structure name for the native
// backend: shard-counter and shard-gset drive the real apram/shard
// server (the keyed counter is the counter's partitionable form), and
// the -bug suffix plants the unvalidated cross-shard snapshot via
// shard.Server.SetUnsafeSnapshots.
func shardNativeTarget(name string) (s types.Sampler, planted, ok bool) {
	base, isShard := strings.CutPrefix(name, "shard-")
	if !isShard {
		return nil, false, false
	}
	if trimmed, bug := strings.CutSuffix(base, "-bug"); bug {
		planted = true
		base = trimmed
	}
	switch base {
	case "counter":
		return types.KCounter{}, planted, true
	case "gset":
		return types.GSet{}, planted, true
	}
	return nil, false, false
}

// shardReaderHistoryCap bounds how many of each reader's vsum
// responses the directed kcounter runner records into the report
// history (the readers free-run, so the full stream is unbounded; the
// tear oracle checks every response inline regardless).
const shardReaderHistoryCap = 400

// shardReaderDeadline is the directed runner's escape hatch from a
// single-processor starvation mode: spinning readers and their slot
// workers can ping-pong through the scheduler's wakeup handoff and
// leave the writer runnable but rarely run, stretching a sub-second
// run to minutes. Past the deadline the readers stop and the writer
// drains its remaining rounds uncontended. Normal runs finish orders
// of magnitude sooner and never see it.
const shardReaderDeadline = 60 * time.Second

// runNativeShardDirected drives the kcounter shard targets with the
// directed single-writer workload: process 0 alternates vinc("k", +2)
// on shard 0 with vinc("l", +1) on shard 1 — one round per pair, 40
// rounds per configured OpsPerProc — while every other process spins
// cross-shard vsums until the writer finishes. Because the writer
// submits each increment only after the previous one's response, every
// reachable state has k-count a and l-count b with b <= a <= b+1, so
// every linearizable vsum is 3b or 3b+2: a response with sum % 3 == 1
// is non-linearizable outright, which is exactly what the planted
// unvalidated compose produces when shard 1's sub-read absorbs a round
// the shard 0 sub-read missed.
//
// This directed shape is what makes the planted bug catchable at all
// on the native backend. With many concurrent writers the generic
// linearizability checker can reorder mutually-concurrent increments
// to explain almost any torn sum (measured: 0 catches over 270
// generic-workload runs), and a script-bounded workload issues too few
// reads to hit the window (the tear needs a full writer round to land
// between the reader's two sub-reads — roughly one in a few hundred
// free-running vsums at 8 slots per shard, and essentially never at
// 4). Multi-writer keyed contention is covered separately by the shard
// package's own stress tests; the generic script alphabet (including
// the quiesce-path mutators) still drives the gset target.
func runNativeShardDirected(cfg Config, planted bool) (*NativeReport, error) {
	n := cfg.N
	if n < 2 {
		return nil, fmt.Errorf("chaos: directed shard workload needs at least 2 processes, got %d", n)
	}
	rounds := 40 * cfg.OpsPerProc
	rng := rand.New(rand.NewSource(cfg.Seed))
	cutRounds := rounds
	for i := 0; i < cfg.Crashes; i++ {
		if c := rng.Intn(rounds + 1); c < cutRounds {
			cutRounds = c
		}
	}
	stallAt := map[int]int{}
	for i := 0; i < cfg.Stalls; i++ {
		stallAt[rng.Intn(rounds)] += 1 + rng.Intn(4)
	}

	// spec.PartitionIndex("k", 2) == 0, ("l", 2) == 1.
	var invs [2]spec.Inv
	for i, kd := range []struct {
		k string
		d int64
	}{{"k", 2}, {"l", 1}} {
		arg, _, err := histio.NormalizeOp("kcounter", types.OpVInc,
			map[string]any{"K": kd.k, "D": kd.d}, nil)
		if err != nil {
			return nil, err
		}
		invs[i] = spec.Inv{Op: types.OpVInc, Arg: arg}
	}
	sumInv := spec.Inv{Op: types.OpVSum}

	sv := shard.New(types.KCounter{}, n, apram.WithShards(shardS))
	defer sv.Close()
	if !sv.Sharded() {
		return nil, fmt.Errorf("chaos: %s unexpectedly degraded to one shard: %s", cfg.Structure, sv.Reason())
	}
	if planted {
		sv.SetUnsafeSnapshots()
	}

	rep := &NativeReport{Structure: cfg.Structure, Seed: cfg.Seed, N: n}
	if cutRounds < rounds {
		rep.Crashed = append(rep.Crashed, 0)
	}

	var clock, stalls atomic.Int64
	recs := make([][]nativeOp, n)
	torn := make([]string, n)
	ctx := context.Background()
	done := make(chan struct{})
	runProcs(rep, n, func(p int) error {
		if p == 0 { // writer
			defer close(done)
			for r := 0; r < cutRounds; r++ {
				stall(stallAt[r], &stalls)
				for _, inv := range invs {
					start := clock.Add(1)
					resp, err := sv.Do(ctx, inv)
					if err != nil {
						return fmt.Errorf("writer round %d: %w", r, err)
					}
					end := clock.Add(1)
					recs[0] = append(recs[0], nativeOp{inv: inv, resp: resp, start: start, end: end})
				}
			}
			return nil
		}
		deadline := time.Now().Add(shardReaderDeadline)
		for iter := 0; ; iter++ {
			select {
			case <-done:
				return nil
			default:
			}
			if iter%64 == 63 {
				// Break wakeup-handoff chains so the writer gets scheduled.
				runtime.Gosched()
				if time.Now().After(deadline) {
					return nil
				}
			}
			start := clock.Add(1)
			resp, err := sv.Do(ctx, sumInv)
			if err != nil {
				return fmt.Errorf("reader %d: %w", p, err)
			}
			end := clock.Add(1)
			sum := resp.(int64)
			if sum%3 == 1 && torn[p] == "" {
				torn[p] = fmt.Sprintf(
					"reader %d: vsum %d has no linearization: the writer's (+2,+1) alternation only reaches sums of 3b or 3b+2 — shard 1 composed a round shard 0's sub-read missed",
					p, sum)
			}
			if len(recs[p]) < shardReaderHistoryCap || sum%3 == 1 {
				recs[p] = append(recs[p], nativeOp{inv: sumInv, resp: resp, start: start, end: end})
			}
		}
	})
	rep.Stalls = int(stalls.Load())
	for _, msg := range torn {
		if msg != "" {
			rep.Failures = append(rep.Failures, Failure{Oracle: OracleLin, Msg: msg})
		}
	}

	rep.addHistory(recs)
	// The free-running history is far past the generic checker's search
	// bound; the prefix-sum oracle above is the linearizability check.
	rep.LinSkipped = len(rep.History.Ops) > lincheck.MaxOps
	return rep, nil
}

// runNativeShard executes one shard-* configuration on the native
// backend: a real shard.Server (shardS shards, n slots each) driven by
// n client goroutines, with cross-shard mutators included in the
// scripts — the write-lock quiesce path gets its fault coverage here,
// where locks exist. The oracles are linearizability over the
// real-time interval history against the unpartitioned sequential
// spec, and panic-freedom. Per-operation wait-freedom accounting is
// not available through the serve pipeline (a slot worker batches many
// logical operations into one publication), so NativeReport carries no
// access counts for these targets.
//
// The kcounter targets take the directed single-writer path of
// runNativeShardDirected — the workload whose oracle can actually
// convict the planted compose bug; the gset target keeps the generic
// script-driven mixed alphabet below.
func runNativeShard(cfg Config, s types.Sampler, planted bool) (*NativeReport, error) {
	n := cfg.N
	specName := s.Name()
	if specName == "kcounter" {
		return runNativeShardDirected(cfg, planted)
	}

	pl, err := newNativePlan(cfg, specName, func(rng *rand.Rand) histio.TraceOp { return genShardOp(rng, specName, true) })
	if err != nil {
		return nil, err
	}

	sv := shard.New(s, n, apram.WithShards(shardS))
	defer sv.Close()
	if !sv.Sharded() {
		return nil, fmt.Errorf("chaos: %s unexpectedly degraded to one shard: %s", cfg.Structure, sv.Reason())
	}
	if planted {
		sv.SetUnsafeSnapshots()
	}

	rep := pl.report(cfg)
	var clock, stalls atomic.Int64
	recs := make([][]nativeOp, n)
	ctx := context.Background()
	runProcs(rep, n, func(p int) error {
		for i := 0; i < pl.cut[p]; i++ {
			stall(pl.stallBefore[p][i], &stalls)
			inv := pl.scripts[p][i]
			start := clock.Add(1)
			resp, err := sv.Do(ctx, inv)
			if err != nil {
				return fmt.Errorf("process %d op %d: %w", p, i, err)
			}
			end := clock.Add(1)
			recs[p] = append(recs[p], nativeOp{inv: inv, resp: resp, start: start, end: end})
		}
		return nil
	})
	rep.Stalls = int(stalls.Load())

	rep.addHistory(recs)
	if len(rep.Failures) == 0 {
		rep.checkLin(s)
	} else {
		rep.LinSkipped = len(rep.History.Ops) > lincheck.MaxOps
	}
	return rep, nil
}

// classifyDoErr names which layer of the serving stack failed a Do,
// using the front door's typed error surface (serve.ErrClosed /
// serve.ErrOverload / *serve.OpError) instead of quoting whatever
// string came back. The shard targets run blocking admission with no
// mid-run Close, so any of these in a report is itself a finding —
// the label says where to look.
func classifyDoErr(err error) string {
	switch {
	case errors.Is(err, serve.ErrClosed):
		return "front door closed mid-run"
	case errors.Is(err, serve.ErrOverload):
		return "front door shed a request under blocking admission"
	}
	var oe *serve.OpError
	if errors.As(err, &oe) {
		return "published batch failed to execute"
	}
	return "engine error"
}
