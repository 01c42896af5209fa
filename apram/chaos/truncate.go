package chaos

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"

	"repro/apram/obs"
	"repro/internal/core"
	"repro/internal/histio"
	"repro/internal/lattice"
	"repro/internal/pram"
	"repro/internal/snapshot"
	"repro/internal/spec"
	"repro/internal/types"
)

// truncEvery is the truncate targets' epoch cadence: propose after
// every completed operation and retain nothing beyond the anchors, so
// even the short scripts chaos generates drive several full
// checkpoint-and-truncate epochs per run.
const truncEvery = 1

// recMem wraps a pram.Memory and fingerprints the single shared access
// a machine step performs, so two lockstepped instances can be compared
// access for access.
type recMem struct {
	pram.Memory
	last string
}

func (r *recMem) Read(p, reg int) pram.Value {
	v := r.Memory.Read(p, reg)
	r.last = accessSig('R', reg, v)
	return v
}

func (r *recMem) Write(p, reg int, v pram.Value) {
	r.last = accessSig('W', reg, v)
	r.Memory.Write(p, reg, v)
}

// accessSig fingerprints one access by kind, register, and value. A
// tagged vector is identified by its cell tags alone: each cell is
// written by a single process with strictly increasing tags, so equal
// tags imply equal published entries — comparing tags compares entry
// identity without chasing *Entry pointers, which differ between the
// two instances.
func accessSig(kind byte, reg int, v pram.Value) string {
	var b strings.Builder
	b.WriteByte(kind)
	fmt.Fprintf(&b, "%d=", reg)
	switch x := v.(type) {
	case lattice.Vec:
		for _, c := range x {
			fmt.Fprintf(&b, "%d,", c.Tag)
		}
	case nil:
		b.WriteString("nil")
	default:
		fmt.Fprintf(&b, "%T", v)
	}
	return b.String()
}

// truncOracle accumulates lockstep divergences between the truncated
// system and its unbounded reference. Capped: the first few
// divergences identify the failure; thousands would bury it.
type truncOracle struct {
	diverged []string
}

func (o *truncOracle) note(msg string) {
	if len(o.diverged) < 8 {
		o.diverged = append(o.diverged, msg)
	}
}

// truncMachine steps a truncation-enabled universal machine and an
// untruncated reference twin in lockstep: the main machine runs on the
// engine's shared memory (so the chaos engine counts its accesses and
// the schedule applies to it), the reference on a private twin memory
// the engine never sees. Truncation performs no shared accesses of its
// own and never changes an operation's step structure, so the two
// instances must agree access for access and response for response;
// any divergence is a truncation-safety violation. Crash and stall
// faults mirror automatically — the twins advance only together.
type truncMachine struct {
	proc   int
	main   *core.Machine // truncating, on the engine's shared memory
	ref    *core.Machine // unbounded reference, on the private twin memory
	refMem *pram.Mem
	orc    *truncOracle
	step   int
}

func (t *truncMachine) Step(m pram.Memory) {
	rm := recMem{Memory: m}
	rr := recMem{Memory: t.refMem}
	// Main first: if it panics (e.g. a planted-bug verdict mismatch),
	// the engine converts that into an OraclePanic failure and stops —
	// the reference twin's missed step is moot.
	t.main.Step(&rm)
	t.ref.Step(&rr)
	t.step++
	if rm.last != rr.last {
		t.orc.note(fmt.Sprintf(
			"process %d step %d: truncated run accessed %s, reference %s (shared-access traces must be bit-identical)",
			t.proc, t.step, rm.last, rr.last))
	}
	if t.main.Done() != t.ref.Done() {
		t.orc.note(fmt.Sprintf(
			"process %d step %d: truncated run done=%v, reference done=%v (operations out of lockstep)",
			t.proc, t.step, t.main.Done(), t.ref.Done()))
	}
}

func (t *truncMachine) Done() bool     { return t.main.Done() }
func (t *truncMachine) Completed() int { return t.main.Completed() }

// Instrument forwards the engine's probe to the truncated machine only
// — its EvTruncate/EvCheckpoint events are how runs (and tests) see
// that epochs actually completed. The reference twin stays silent: its
// private-memory accesses and events are an oracle detail, not part of
// the run under test.
func (t *truncMachine) Instrument(p obs.Probe) { t.main.Instrument(p) }

// Clone is unsupported: truncation-enabled machines cannot be cloned
// (a clone's fresh linearizer would rediscover a cut graph). The chaos
// engine never clones machines.
func (t *truncMachine) Clone() pram.Machine {
	panic("chaos: truncate machines are not cloneable")
}

// truncateTarget drives the checkpoint-and-truncate protocol under the
// chaos scheduler with the strongest oracle the repo has for it: an
// untruncated reference system executes the identical scripts under
// the identical schedule, and the two must produce bit-identical
// shared-access traces and responses — exactly the "truncation is
// invisible" claim of the protocol. The linearizability oracle
// additionally checks the truncated run's history against the spec,
// and the engine's wait-freedom bounds apply unchanged (truncation
// adds no shared accesses).
//
// With planted set, the coordinator's watermark loses its −1
// (core.Truncation.SetUnsafe): proposal-time anchors get folded while
// still live, a later scan re-discovers a freed entry, and the
// truncated run diverges — the planted bug every oracle family here
// exists to catch.
func truncateTarget(s types.Sampler, planted bool) *target {
	specName := s.Name()
	name := "truncate-" + specName
	if planted {
		name += "-bug"
	}
	return &target{
		name:     name,
		specName: specName,
		spec:     s,
		script: func(rng *rand.Rand, cfg Config, proc int) []histio.TraceOp {
			ops := make([]histio.TraceOp, cfg.OpsPerProc)
			for i := range ops {
				ops[i] = genSpecOp(rng, specName)
			}
			return ops
		},
		build: func(tr *histio.TraceFile) (*instance, error) {
			n := tr.N
			lay := snapshot.Layout{Base: 0, N: n}
			mem := pram.NewMem(lay.Regs(), n)
			u := core.NewSim(s, n, 0, mem)
			refMem := pram.NewMem(lay.Regs(), n)
			uref := core.NewSim(s, n, 0, refMem)
			trc := core.NewTruncation(n, truncEvery)
			if planted {
				trc.SetUnsafe()
			}
			orc := &truncOracle{}
			tms := make([]*truncMachine, n)
			machines := make([]pram.Machine, n)
			for p := 0; p < n; p++ {
				invs := make([]spec.Inv, len(tr.Scripts[p]))
				for i, op := range tr.Scripts[p] {
					arg, _, err := histio.NormalizeOp(specName, op.Name, op.Arg, nil)
					if err != nil {
						return nil, fmt.Errorf("chaos: process %d op %d: %w", p, i, err)
					}
					invs[i] = spec.Inv{Op: op.Name, Arg: arg}
				}
				main := core.NewMachine(u, p, invs)
				main.SetTruncation(trc)
				tms[p] = &truncMachine{
					proc: p, main: main,
					ref:    core.NewMachine(uref, p, invs),
					refMem: refMem, orc: orc,
				}
				machines[p] = tms[p]
			}
			return &instance{
				mem:  mem,
				sys:  pram.NewSystem(mem, machines),
				nops: func(p int) int { return len(tr.Scripts[p]) },
				inv: func(p, i int) (string, any) {
					inv := tms[p].main.Invocation(i)
					return inv.Op, inv.Arg
				},
				resp: func(p, i int) any { return tms[p].main.Results()[i] },
				bound: func(p, i int) uint64 {
					// Truncation is free at the register level: the
					// untruncated bounds apply unchanged.
					if spec.IsPure(s, tms[p].main.Invocation(i)) {
						return obs.PureExecuteBound(n)
					}
					return obs.ExecuteBound(n)
				},
				check: func(rep *Report) []Failure {
					var out []Failure
					for _, msg := range orc.diverged {
						out = append(out, Failure{Oracle: OracleInvariant, Msg: msg})
					}
					for p := 0; p < n; p++ {
						mr, rr := tms[p].main.Results(), tms[p].ref.Results()
						if len(mr) != len(rr) {
							out = append(out, Failure{Oracle: OracleInvariant,
								Msg: fmt.Sprintf("process %d: truncated run completed %d ops, reference %d", p, len(mr), len(rr))})
							continue
						}
						for i := range mr {
							if !reflect.DeepEqual(mr[i], rr[i]) {
								out = append(out, Failure{Oracle: OracleInvariant,
									Msg: fmt.Sprintf("process %d op %d: truncated response %v, reference %v", p, i, mr[i], rr[i])})
							}
						}
					}
					return out
				},
				opKind: obs.OpExecute,
			}, nil
		},
	}
}
