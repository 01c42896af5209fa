package main

import (
	"context"
	"fmt"
	"strconv"

	"repro/apram"
	"repro/apram/obs"
	"repro/apram/serve"
	"repro/apram/shard"
	"repro/apram/telemetry"
	"repro/apram/workload"
)

const (
	// truncateEvery is the truncation proposal interval every server
	// runs with, so no workload's cost grows with run length.
	truncateEvery = 64
	// streamLen is the number of generated operations per stream. A run
	// cycles through its streams, so memory stays flat however long it
	// measures.
	streamLen = 1 << 12
	// numKeys is the keyed workloads' key range.
	numKeys = 64
)

// spec describes one workload: its traffic and the server it drives.
type spec struct {
	name string
	// shards and slots shape the server: shards > 0 selects the
	// sharded keyed counter with that many shards of slots slots each,
	// otherwise one counter server with slots slots.
	shards, slots int
	profiles      []workload.Profile
	ops           workload.OpSet
}

var specs = []spec{
	{
		name:     "solo",
		slots:    8,
		profiles: []workload.Profile{counterClient("c0")},
		ops:      workload.CounterOps(),
	},
	{
		name:     "contended",
		slots:    8,
		profiles: []workload.Profile{counterClient("c0"), counterClient("c1")},
		ops:      workload.CounterOps(),
	},
	{
		name:     "keyed",
		shards:   2,
		slots:    2,
		profiles: []workload.Profile{keyedClient("c0"), keyedClient("c1")},
		ops:      workload.KCounterOps(),
	},
}

// counterClient is one closed-loop counter client: 90% inc, 10% read.
func counterClient(tenant string) workload.Profile {
	return workload.Profile{
		Tenant:   tenant,
		Arrivals: workload.ClosedLoop(1),
		Count:    streamLen,
		Ops: []workload.OpWeight{
			{Op: "inc", Weight: 90},
			{Op: "read", Weight: 10},
		},
	}
}

// keyedClient is one closed-loop keyed client with the read-heavy mix:
// 60% vread, 35% vinc and 5% cross-shard vsum over Zipf-popular keys.
func keyedClient(tenant string) workload.Profile {
	return workload.Profile{
		Tenant:   tenant,
		Arrivals: workload.ClosedLoop(1),
		Count:    streamLen,
		Ops: []workload.OpWeight{
			{Op: "vread", Weight: 60},
			{Op: "vinc", Weight: 35},
			{Op: "vsum", Weight: 5},
		},
		Keys:  numKeys,
		ZipfS: 1.2,
	}
}

func lookup(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// keyed reports whether the workload drives the sharded keyed counter.
func (s *spec) keyed() bool { return s.shards > 0 }

// stream generates the workload's operations for seed.
func (s *spec) stream(seed int64) ([]workload.Event, error) {
	return workload.Stream(workload.Config{Seed: seed}, s.profiles, s.ops)
}

// opKinds names the operations the workloads issue; spans record an
// operation as its index here.
var opKinds = [...]string{"inc", "read", "vinc", "vread", "vsum"}

const vsumKind = 4

// op is one generated operation in the form the drivers issue it.
type op struct {
	inv  apram.Inv
	kind uint8
	// key is the index of the key a keyed operation names, 0 for the
	// unkeyed counter and -1 for vsum.
	key int
}

// inputs splits a generated stream into per-client operation lists, in
// client order.
func (s *spec) inputs(evs []workload.Event) ([][]op, error) {
	index := map[string]int{}
	for i, p := range s.profiles {
		index[p.Tenant] = i
	}
	out := make([][]op, len(s.profiles))
	for _, e := range evs {
		o := op{inv: e.Inv, kind: 255}
		for k, name := range opKinds {
			if e.Inv.Op == name {
				o.kind = uint8(k)
			}
		}
		if o.kind == 255 {
			return nil, fmt.Errorf("unexpected operation %v", e.Inv)
		}
		switch arg := e.Inv.Arg.(type) {
		case apram.KD:
			o.key = keyIndex(arg.K)
		case string:
			o.key = keyIndex(arg)
		}
		if e.Inv.Op == "vsum" {
			o.key = -1
		} else if o.key < 0 || o.key >= numKeys {
			return nil, fmt.Errorf("generated key out of range in %v", e.Inv)
		}
		i := index[e.Tenant]
		out[i] = append(out[i], o)
	}
	return out, nil
}

func keyIndex(k string) int {
	i, err := strconv.Atoi(k[1:])
	if err != nil || k[0] != 'k' {
		return -1
	}
	return i
}

// target is the front door a workload drives: *serve.Server or
// *shard.Server.
type target interface {
	DoRequest(ctx context.Context, r serve.Request) (any, error)
	Close()
}

// system is one constructed server plus the public counters the traced
// run reads from it.
type system struct {
	tgt   target
	objs  []*apram.Object
	sheds func() uint64
	// cross is nil for the unsharded server.
	cross func() (optimistic, retried, quiesced uint64)
}

// build constructs the workload's server. probe may be nil.
func (s *spec) build(probe obs.Probe) *system {
	opts := []apram.Option{
		apram.WithBackend(apram.Native()),
		apram.WithTruncateEvery(truncateEvery),
	}
	if probe != nil {
		opts = append(opts, apram.WithProbe(probe))
	}
	if !s.keyed() {
		sv := serve.New(apram.CounterSpec{}, s.slots, opts...)
		return &system{tgt: sv, objs: []*apram.Object{sv.Object()}, sheds: sv.ShedCount}
	}
	opts = append(opts,
		apram.WithShards(s.shards),
		apram.WithTelemetry(telemetry.NewRegistry()))
	sv := shard.New(apram.KCounterSpec{}, s.slots, opts...)
	sys := &system{tgt: sv, cross: sv.CrossStats}
	for i := 0; i < sv.Shards(); i++ {
		sys.objs = append(sys.objs, sv.Shard(i).Object())
	}
	sys.sheds = func() uint64 {
		var t uint64
		for i := 0; i < sv.Shards(); i++ {
			t += sv.Shard(i).ShedCount()
		}
		return t
	}
	return sys
}

// slotCount is the number of probe slots the workload's server uses.
func (s *spec) slotCount() int {
	if !s.keyed() {
		return s.slots
	}
	return s.shards * s.slots
}

// minEpochs is the number of completed truncation epochs on every
// object that ends the warm-up.
const minEpochs = 2

// warm reports whether every object has completed its first
// truncation epochs.
func (sys *system) warm() bool {
	for _, o := range sys.objs {
		if o.TruncStats().Epochs < minEpochs {
			return false
		}
	}
	return true
}
