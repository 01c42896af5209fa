package chaos

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/apram/obs"
	"repro/internal/agreement"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/histio"
	"repro/internal/lattice"
	"repro/internal/pram"
	"repro/internal/snapshot"
	"repro/internal/spec"
	"repro/internal/types"
)

// instance is one concrete system under test, deterministically
// rebuilt from a trace: shared memory, machines, and the accessors
// the oracles need.
type instance struct {
	mem *pram.Mem
	sys *pram.System
	// nops returns how many operations proc's script holds.
	nops func(proc int) int
	// inv returns the (name, normalized argument) of proc's i-th op.
	inv func(proc, i int) (string, any)
	// resp returns the response of proc's i-th completed op.
	resp func(proc, i int) any
	// bound returns the closed-form access bound for proc's i-th op,
	// or 0 when the operation has none.
	bound func(proc, i int) uint64
	// check runs structure-specific invariants after the run.
	check func(rep *Report) []Failure
	// opKind is the obs.Op the engine stamps on this structure's
	// begin/end spans (refined per-op by the script name in Span.Name).
	opKind obs.Op
}

// target describes one fuzzable structure: how to generate scripts
// and how to rebuild an instance from a trace.
type target struct {
	name     string
	specName string // non-empty → linearizability oracle via internal/spec
	spec     spec.Spec
	script   func(rng *rand.Rand, cfg Config, proc int) []histio.TraceOp
	build    func(tr *histio.TraceFile) (*instance, error)
}

// agreeEps is the fixed tolerance of the agreement target. Its value
// is part of the trace contract: replaying a trace re-derives it.
const agreeEps = 0.5

// targets returns the registry, built fresh per call (targets hold no
// state, but the map must not be mutated by callers).
func targets() map[string]*target {
	m := map[string]*target{}
	add := func(t *target) { m[t.name] = t }
	for _, s := range types.AllTypes() {
		add(universalTarget(s))
	}
	add(serveTarget(types.Counter{}))
	add(serveTarget(types.GSet{}))
	for _, s := range types.Property1Types() {
		add(truncateTarget(s, false))
	}
	add(truncateTarget(types.Counter{}, true))
	add(shardTarget("shard-counter", types.KCounter{}, false))
	add(shardTarget("shard-gset", types.GSet{}, false))
	add(shardTarget("shard-counter", types.KCounter{}, true))
	add(snapshotTarget("snapshot", true))
	add(snapshotTarget("snapshot-literal", false))
	add(dcsnapshotTarget())
	add(agreementTarget())
	add(consensusTarget())
	return m
}

// Structures lists the fuzzable structure names, sorted.
func Structures() []string {
	var out []string
	for name := range targets() {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func lookupTarget(name string) (*target, error) {
	t, ok := targets()[name]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown structure %q (have %v)", name, Structures())
	}
	return t, nil
}

// universalTarget drives the Section 5.4 universal construction over
// a sequential spec, with the linearizability oracle checking every
// recorded response against the spec — including the two deliberate
// Property 1 violators (queue, stickybit), which is how the harness's
// find→shrink→replay loop is exercised on a structure that genuinely
// loses operations under contention.
func universalTarget(s types.Sampler) *target {
	name := s.Name()
	return &target{
		name:     name,
		specName: name,
		spec:     s,
		script: func(rng *rand.Rand, cfg Config, proc int) []histio.TraceOp {
			ops := make([]histio.TraceOp, cfg.OpsPerProc)
			for i := range ops {
				ops[i] = genSpecOp(rng, name)
			}
			return ops
		},
		build: func(tr *histio.TraceFile) (*instance, error) {
			n := tr.N
			lay := snapshot.Layout{Base: 0, N: n}
			mem := pram.NewMem(lay.Regs(), n)
			u := core.NewSim(s, n, 0, mem)
			cms := make([]*core.Machine, n)
			machines := make([]pram.Machine, n)
			for p := 0; p < n; p++ {
				invs := make([]spec.Inv, len(tr.Scripts[p]))
				for i, op := range tr.Scripts[p] {
					arg, _, err := histio.NormalizeOp(name, op.Name, op.Arg, nil)
					if err != nil {
						return nil, fmt.Errorf("chaos: process %d op %d: %w", p, i, err)
					}
					invs[i] = spec.Inv{Op: op.Name, Arg: arg}
				}
				cms[p] = core.NewMachine(u, p, invs)
				machines[p] = cms[p]
			}
			return &instance{
				mem:  mem,
				sys:  pram.NewSystem(mem, machines),
				nops: func(p int) int { return len(tr.Scripts[p]) },
				inv: func(p, i int) (string, any) {
					inv := cms[p].Invocation(i)
					return inv.Op, inv.Arg
				},
				resp: func(p, i int) any { return cms[p].Results()[i] },
				bound: func(p, i int) uint64 {
					if spec.IsPure(s, cms[p].Invocation(i)) {
						return obs.PureExecuteBound(n)
					}
					return obs.ExecuteBound(n)
				},
				opKind: obs.OpExecute,
			}, nil
		},
	}
}

// serveBatchCap bounds the batches the serve targets compose. Kept
// small so shrunk traces stay readable while multi-operation batches
// are still the common case.
const serveBatchCap = 3

// serveTarget drives the apram/serve batching layer's publication
// path under the chaos scheduler: the base type's logical operations
// are greedily packed into internally commuting batches (the same
// spec.CanBatch admission rule a slot worker applies) and executed
// through the universal construction over spec.Batch(base). This is
// where randomized mutator-batch-vs-mutator-batch schedules get
// their linearizability coverage — the serve package's exhaustive sim
// tests stop at mutator-vs-pure because the two-mutator schedule
// space is millions of leaves. The trace records only the logical
// operations; packing is deterministic, so replay and shrink rebuild
// identical batches. Only types whose batches provably preserve
// Property 1 (spec.CheckBatchable) are registered.
func serveTarget(s types.Sampler) *target {
	baseName := s.Name()
	bs := spec.Batch(s)
	return &target{
		name: "serve-" + baseName,
		// No specName: the trace format only names registered base
		// specs, and the linearizability oracle below checks against
		// the batched spec directly.
		spec: bs,
		script: func(rng *rand.Rand, cfg Config, proc int) []histio.TraceOp {
			ops := make([]histio.TraceOp, cfg.OpsPerProc)
			for i := range ops {
				ops[i] = genSpecOp(rng, baseName)
			}
			return ops
		},
		build: func(tr *histio.TraceFile) (*instance, error) {
			n := tr.N
			lay := snapshot.Layout{Base: 0, N: n}
			mem := pram.NewMem(lay.Regs(), n)
			u := core.NewSim(bs, n, 0, mem)
			cms := make([]*core.Machine, n)
			machines := make([]pram.Machine, n)
			scripts := make([][]spec.Inv, n)
			for p := 0; p < n; p++ {
				logical := make([]spec.Inv, len(tr.Scripts[p]))
				for i, op := range tr.Scripts[p] {
					arg, _, err := histio.NormalizeOp(baseName, op.Name, op.Arg, nil)
					if err != nil {
						return nil, fmt.Errorf("chaos: process %d op %d: %w", p, i, err)
					}
					logical[i] = spec.Inv{Op: op.Name, Arg: arg}
				}
				scripts[p] = packBatches(s, logical)
				cms[p] = core.NewMachine(u, p, scripts[p])
				machines[p] = cms[p]
			}
			return &instance{
				mem:  mem,
				sys:  pram.NewSystem(mem, machines),
				nops: func(p int) int { return len(scripts[p]) },
				inv: func(p, i int) (string, any) {
					// Unwrap to the plain invocation slice: the batched
					// spec accepts it as a batch argument, and it
					// serializes without the internal memo wrapper.
					inner, _ := spec.BatchOf(cms[p].Invocation(i))
					return spec.BatchOp, inner
				},
				resp: func(p, i int) any { return cms[p].Results()[i] },
				bound: func(p, i int) uint64 {
					// A batch is ONE published operation of the
					// universal construction: the base Execute bounds
					// apply unchanged regardless of batch size.
					if spec.IsPure(bs, cms[p].Invocation(i)) {
						return obs.PureExecuteBound(n)
					}
					return obs.ExecuteBound(n)
				},
				opKind: obs.OpBatch,
			}, nil
		},
	}
}

// packBatches composes consecutive logical operations into batches of
// at most serveBatchCap, admitting an operation only while it keeps
// the batch internally commuting (spec.CanBatch) and flushing on the
// first conflict.
func packBatches(base spec.Spec, logical []spec.Inv) []spec.Inv {
	var out []spec.Inv
	var cur []spec.Inv
	for _, inv := range logical {
		if len(cur) > 0 && (len(cur) >= serveBatchCap || !spec.CanBatch(base, cur, inv)) {
			out = append(out, spec.BatchInv(cur...))
			cur = nil
		}
		cur = append(cur, inv)
	}
	if len(cur) > 0 {
		out = append(out, spec.BatchInv(cur...))
	}
	return out
}

// genSpecOp generates one random operation for the named spec, with
// small argument alphabets so that generated runs actually collide.
func genSpecOp(rng *rand.Rand, specName string) histio.TraceOp {
	letter := func() string { return string(rune('a' + rng.Intn(5))) }
	switch specName {
	case "counter":
		switch d := rng.Intn(20); {
		case d < 8:
			return histio.TraceOp{Name: types.OpInc, Arg: int64(1 + rng.Intn(5))}
		case d < 13:
			return histio.TraceOp{Name: types.OpDec, Arg: int64(1 + rng.Intn(3))}
		case d < 19:
			return histio.TraceOp{Name: types.OpRead}
		default:
			return histio.TraceOp{Name: types.OpReset, Arg: int64(rng.Intn(3))}
		}
	case "gset":
		switch d := rng.Intn(20); {
		case d < 9:
			return histio.TraceOp{Name: types.OpAdd, Arg: letter()}
		case d < 18:
			return histio.TraceOp{Name: types.OpMembers}
		default:
			return histio.TraceOp{Name: types.OpClear}
		}
	case "maxreg":
		if rng.Intn(2) == 0 {
			return histio.TraceOp{Name: types.OpWriteMax, Arg: int64(rng.Intn(20))}
		}
		return histio.TraceOp{Name: types.OpReadMax}
	case "register":
		if rng.Intn(2) == 0 {
			return histio.TraceOp{Name: types.OpWrite, Arg: letter()}
		}
		return histio.TraceOp{Name: types.OpReadReg}
	case "directory":
		key := func() string { return string(rune('k' + rng.Intn(3))) }
		switch d := rng.Intn(20); {
		case d < 8:
			return histio.TraceOp{Name: types.OpPut, Arg: map[string]any{"K": key(), "V": letter()}}
		case d < 14:
			return histio.TraceOp{Name: types.OpGet, Arg: key()}
		case d < 17:
			return histio.TraceOp{Name: types.OpDel, Arg: key()}
		default:
			return histio.TraceOp{Name: types.OpGetAll}
		}
	case "kcounter":
		key := func() string { return string(rune('k' + rng.Intn(3))) }
		switch d := rng.Intn(20); {
		case d < 8:
			return histio.TraceOp{Name: types.OpVInc,
				Arg: map[string]any{"K": key(), "D": int64(1 + rng.Intn(5))}}
		case d < 11:
			return histio.TraceOp{Name: types.OpVInc,
				Arg: map[string]any{"K": key(), "D": int64(-1 - rng.Intn(3))}}
		case d < 15:
			return histio.TraceOp{Name: types.OpVRead, Arg: key()}
		case d < 18:
			return histio.TraceOp{Name: types.OpVSum}
		default:
			return histio.TraceOp{Name: types.OpVZero}
		}
	case "logical-clock":
		if rng.Intn(2) == 0 {
			return histio.TraceOp{Name: types.OpMerge,
				Arg: map[string]any{string(rune('p' + rng.Intn(3))): int64(1 + rng.Intn(5))}}
		}
		return histio.TraceOp{Name: types.OpReadClock}
	case "queue":
		if rng.Intn(2) == 0 {
			return histio.TraceOp{Name: types.OpEnq, Arg: letter()}
		}
		return histio.TraceOp{Name: types.OpDeq}
	case "stickybit":
		if rng.Intn(2) == 0 {
			return histio.TraceOp{Name: types.OpSet, Arg: int64(rng.Intn(2))}
		}
		return histio.TraceOp{Name: types.OpReadBit}
	}
	panic("chaos: no generator for spec " + specName)
}

// snapshotTarget drives the Section 6 semilattice scan over MaxInt.
// There is no sequential spec oracle (a Scan is an update+query fused
// into one operation); instead the structural invariants of Section 6
// are checked: per-process scan results are monotone, and every scan
// includes the scanner's own prior contributions.
func snapshotTarget(name string, optimized bool) *target {
	lat := lattice.MaxInt{}
	boundFn := obs.ScanBound
	if !optimized {
		boundFn = obs.LiteralScanBound
	}
	return &target{
		name: name,
		script: func(rng *rand.Rand, cfg Config, proc int) []histio.TraceOp {
			ops := make([]histio.TraceOp, cfg.OpsPerProc)
			for i := range ops {
				ops[i] = histio.TraceOp{Name: "scan", Arg: int64(rng.Intn(100))}
			}
			return ops
		},
		build: func(tr *histio.TraceFile) (*instance, error) {
			n := tr.N
			lay := snapshot.Layout{Base: 0, N: n}
			mem := pram.NewMem(lay.Regs(), n)
			lay.Install(mem, lat)
			sms := make([]*snapshot.ScanMachine, n)
			machines := make([]pram.Machine, n)
			args := make([][]int64, n)
			for p := 0; p < n; p++ {
				sms[p] = snapshot.NewScanMachine(p, lay, lat, optimized)
				for i, op := range tr.Scripts[p] {
					if op.Name != "scan" {
						return nil, fmt.Errorf("chaos: %s: unknown op %q", name, op.Name)
					}
					v, err := asInt64(op.Arg)
					if err != nil {
						return nil, fmt.Errorf("chaos: %s: process %d op %d: %w", name, p, i, err)
					}
					args[p] = append(args[p], v)
					sms[p].Enqueue(v)
				}
				machines[p] = sms[p]
			}
			return &instance{
				mem:  mem,
				sys:  pram.NewSystem(mem, machines),
				nops: func(p int) int { return len(args[p]) },
				inv:  func(p, i int) (string, any) { return "scan", args[p][i] },
				resp: func(p, i int) any { return sms[p].Results()[i] },
				bound: func(p, i int) uint64 {
					return boundFn(n)
				},
				check: func(rep *Report) []Failure {
					return checkScanInvariants(lat, sms, args)
				},
				opKind: obs.OpScan,
			}, nil
		},
	}
}

// checkScanInvariants verifies the Section 6 structural properties on
// completed scans: monotone per-process results and self-inclusion.
func checkScanInvariants(lat lattice.Lattice, sms []*snapshot.ScanMachine, args [][]int64) []Failure {
	var out []Failure
	for p, sm := range sms {
		results := sm.Results()
		prev := lat.Bottom()
		own := lat.Bottom()
		for i, r := range results {
			own = lat.Join(own, args[p][i])
			if !lat.Leq(prev, r) {
				out = append(out, Failure{Oracle: OracleInvariant,
					Msg: fmt.Sprintf("process %d scan %d result %v below its previous result %v (monotonicity)", p, i, r, prev)})
			}
			if !lat.Leq(own, r) {
				out = append(out, Failure{Oracle: OracleInvariant,
					Msg: fmt.Sprintf("process %d scan %d result %v omits its own contribution %v (self-inclusion)", p, i, r, own)})
			}
			prev = r
		}
	}
	return out
}

// dcsnapshotTarget drives the double-collect snapshot baseline:
// process 0 scans while everyone else updates. The double-collect
// Scan is lock-free but NOT wait-free, and the wait-freedom oracle
// holds it to the Figure 5 scan bound it competes against — under an
// interleaving adversary it blows through that bound, which makes
// this the harness's deliberately broken structure for demonstrating
// the find→shrink→replay loop.
func dcsnapshotTarget() *target {
	return &target{
		name: "dcsnapshot",
		script: func(rng *rand.Rand, cfg Config, proc int) []histio.TraceOp {
			if proc == 0 {
				return []histio.TraceOp{{Name: "scan"}}
			}
			ops := make([]histio.TraceOp, cfg.OpsPerProc)
			for i := range ops {
				ops[i] = histio.TraceOp{Name: "update", Arg: int64(rng.Intn(100))}
			}
			return ops
		},
		build: func(tr *histio.TraceFile) (*instance, error) {
			n := tr.N
			lay := snapshot.DCLayout{Base: 0, N: n}
			mem := pram.NewMem(n, n)
			lay.Install(mem)
			machines := make([]pram.Machine, n)
			var scanner *snapshot.DCScanMachine
			vals := make([][]any, n)
			for p := 0; p < n; p++ {
				var script []any
				for i, op := range tr.Scripts[p] {
					switch op.Name {
					case "scan":
						if p != 0 || i != 0 {
							return nil, fmt.Errorf("chaos: dcsnapshot: scan only as process 0's sole op")
						}
					case "update":
						v, err := asInt64(op.Arg)
						if err != nil {
							return nil, fmt.Errorf("chaos: dcsnapshot: process %d op %d: %w", p, i, err)
						}
						script = append(script, v)
					default:
						return nil, fmt.Errorf("chaos: dcsnapshot: unknown op %q", op.Name)
					}
				}
				vals[p] = script
				if p == 0 {
					if len(tr.Scripts[p]) > 0 {
						scanner = snapshot.NewDCScanMachine(0, lay)
						machines[p] = scanner
					} else {
						machines[p] = snapshot.NewDCUpdateMachine(p, lay, nil)
					}
				} else {
					machines[p] = snapshot.NewDCUpdateMachine(p, lay, script)
				}
			}
			return &instance{
				mem:  mem,
				sys:  pram.NewSystem(mem, machines),
				nops: func(p int) int { return len(tr.Scripts[p]) },
				inv: func(p, i int) (string, any) {
					if p == 0 && scanner != nil {
						return "scan", nil
					}
					return "update", vals[p][i]
				},
				resp: func(p, i int) any {
					if p == 0 && scanner != nil {
						return scanner.Result()
					}
					return nil
				},
				bound: func(p, i int) uint64 {
					if p == 0 && scanner != nil {
						// Held to the wait-free competitor's Figure 5
						// bound — the planted violation.
						return obs.ScanBound(n)
					}
					return 1 // one write per update
				},
				opKind: obs.OpScan,
			}, nil
		},
	}
}

// agreementTarget drives the Section 4 approximate agreement machine:
// one input+output operation per process. Oracles: the Figure 1
// specification (outputs inside the input range, spread < ε) and the
// Theorem 5 step bound.
func agreementTarget() *target {
	return &target{
		name: "agreement",
		script: func(rng *rand.Rand, cfg Config, proc int) []histio.TraceOp {
			return []histio.TraceOp{{Name: "agree", Arg: float64(rng.Intn(1000)) / 10}}
		},
		build: func(tr *histio.TraceFile) (*instance, error) {
			n := tr.N
			lay := agreement.Layout{Base: 0, N: n}
			mem := pram.NewMem(n, n)
			lay.Install(mem)
			ams := make([]*agreement.Machine, n)
			machines := make([]pram.Machine, n)
			inputs := make([]float64, n)
			lo, hi := 0.0, 0.0
			for p := 0; p < n; p++ {
				if len(tr.Scripts[p]) != 1 || tr.Scripts[p][0].Name != "agree" {
					return nil, fmt.Errorf("chaos: agreement: process %d needs exactly one agree op", p)
				}
				x, err := asFloat64(tr.Scripts[p][0].Arg)
				if err != nil {
					return nil, fmt.Errorf("chaos: agreement: process %d: %w", p, err)
				}
				inputs[p] = x
				if p == 0 || x < lo {
					lo = x
				}
				if p == 0 || x > hi {
					hi = x
				}
				ams[p] = agreement.NewMachine(p, x, agreeEps, lay)
				machines[p] = ams[p]
			}
			bound := uint64(agreement.StepBound(n, hi-lo, agreeEps))
			return &instance{
				mem:  mem,
				sys:  pram.NewSystem(mem, machines),
				nops: func(p int) int { return 1 },
				inv:  func(p, i int) (string, any) { return "agree", inputs[p] },
				resp: func(p, i int) any { return ams[p].Result() },
				bound: func(p, i int) uint64 {
					return bound
				},
				check: func(rep *Report) []Failure {
					return checkAgreement(ams, inputs, lo, hi)
				},
				opKind: obs.OpAgree,
			}, nil
		},
	}
}

// checkAgreement verifies Figure 1 on the completed outputs.
func checkAgreement(ams []*agreement.Machine, inputs []float64, lo, hi float64) []Failure {
	var out []Failure
	outLo, outHi := 0.0, 0.0
	first := true
	for p, am := range ams {
		if !am.Done() {
			continue
		}
		y := am.Result()
		if y < lo || y > hi {
			out = append(out, Failure{Oracle: OracleInvariant,
				Msg: fmt.Sprintf("process %d output %v outside input range [%v,%v]", p, y, lo, hi)})
		}
		if first || y < outLo {
			outLo = y
		}
		if first || y > outHi {
			outHi = y
		}
		first = false
	}
	if !first && outHi-outLo >= agreeEps {
		out = append(out, Failure{Oracle: OracleInvariant,
			Msg: fmt.Sprintf("output spread %v ≥ ε=%v (inputs %v)", outHi-outLo, agreeEps, inputs)})
	}
	return out
}

// consMachine adapts a consensus.Stepper (which steps linearizable
// whole operations on the native object, not register accesses) to
// the simulator's Machine interface, so the chaos scheduler can
// interleave and crash consensus processes like any other target.
type consMachine struct {
	st *consensus.Stepper
}

func (c *consMachine) Step(pram.Memory) { c.st.Step() }
func (c *consMachine) Done() bool       { return c.st.Done() }
func (c *consMachine) Completed() int {
	if c.st.Done() {
		return 1
	}
	return 0
}

// Clone is unsupported: the native consensus object the steppers
// share cannot be forked. The chaos engine never clones machines.
func (c *consMachine) Clone() pram.Machine {
	panic("chaos: consensus machines are not cloneable")
}

// consensusTarget drives randomized binary consensus at linearizable
// operation granularity (see internal/consensus.Stepper). There is no
// deterministic step bound — termination is randomized — so the
// oracles are agreement and validity over whoever decided.
func consensusTarget() *target {
	return &target{
		name: "consensus",
		script: func(rng *rand.Rand, cfg Config, proc int) []histio.TraceOp {
			return []histio.TraceOp{{Name: "decide", Arg: int64(rng.Intn(2))}}
		},
		build: func(tr *histio.TraceFile) (*instance, error) {
			n := tr.N
			c := consensus.New(n, tr.Seed)
			sts := make([]*consensus.Stepper, n)
			machines := make([]pram.Machine, n)
			props := make([]int, n)
			for p := 0; p < n; p++ {
				if len(tr.Scripts[p]) != 1 || tr.Scripts[p][0].Name != "decide" {
					return nil, fmt.Errorf("chaos: consensus: process %d needs exactly one decide op", p)
				}
				v, err := asInt64(tr.Scripts[p][0].Arg)
				if err != nil || (v != 0 && v != 1) {
					return nil, fmt.Errorf("chaos: consensus: process %d proposal %v not a bit", p, tr.Scripts[p][0].Arg)
				}
				props[p] = int(v)
				sts[p] = consensus.NewStepper(c, p, int(v))
				machines[p] = &consMachine{st: sts[p]}
			}
			mem := pram.NewMem(0, n)
			return &instance{
				mem:   mem,
				sys:   pram.NewSystem(mem, machines),
				nops:  func(p int) int { return 1 },
				inv:   func(p, i int) (string, any) { return "decide", int64(props[p]) },
				resp:  func(p, i int) any { return int64(sts[p].Output()) },
				bound: func(p, i int) uint64 { return 0 },
				check: func(rep *Report) []Failure {
					return checkConsensus(sts, props)
				},
				opKind: obs.OpDecide,
			}, nil
		},
	}
}

// checkConsensus verifies agreement and validity among deciders.
func checkConsensus(sts []*consensus.Stepper, props []int) []Failure {
	var out []Failure
	decided := -1
	for p, st := range sts {
		if !st.Done() {
			continue
		}
		v := st.Output()
		if decided == -1 {
			decided = v
		} else if v != decided {
			out = append(out, Failure{Oracle: OracleInvariant,
				Msg: fmt.Sprintf("disagreement: process %d decided %d, another decided %d", p, v, decided)})
		}
		valid := false
		for _, in := range props {
			if in == v {
				valid = true
			}
		}
		if !valid {
			out = append(out, Failure{Oracle: OracleInvariant,
				Msg: fmt.Sprintf("process %d decided %d, not among proposals %v", p, v, props)})
		}
	}
	return out
}

// asInt64 coerces a trace argument (native or JSON-decoded) to int64.
func asInt64(v any) (int64, error) {
	switch x := v.(type) {
	case int64:
		return x, nil
	case int:
		return int64(x), nil
	case float64:
		if x != float64(int64(x)) {
			return 0, fmt.Errorf("non-integer argument %v", x)
		}
		return int64(x), nil
	case nil:
		return 0, fmt.Errorf("missing integer argument")
	}
	return 0, fmt.Errorf("argument %T is not an integer", v)
}

// asFloat64 coerces a trace argument to float64.
func asFloat64(v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case int64:
		return float64(x), nil
	case int:
		return float64(x), nil
	case nil:
		return 0, fmt.Errorf("missing numeric argument")
	}
	return 0, fmt.Errorf("argument %T is not numeric", v)
}
