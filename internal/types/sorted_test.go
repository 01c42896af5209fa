package types

import (
	"fmt"
	"testing"

	"repro/internal/spec"
)

// mapStates returns a kcounter, a gset and a directory state of n
// entries each, built through Apply.
func mapStates(n int) (kc, set, dir spec.State) {
	kc, set, dir = KCounter{}.Init(), GSet{}.Init(), Directory{}.Init()
	for i := range n {
		k := fmt.Sprintf("k%02d", i)
		kc, _ = KCounter{}.Apply(kc, VInc(k, int64(i+1)))
		set, _ = GSet{}.Apply(set, Add(k))
		dir, _ = Directory{}.Apply(dir, Put(k, fmt.Sprintf("v%d", i)))
	}
	return kc, set, dir
}

// TestMapStateAllocs pins what the sorted map states cost at 64
// entries, as TestScanMachineInPlace does for scans. Key builds one
// buffer and one string. A mutating Apply copies the entries once, and
// returning the copy as a spec.State boxes its slice header. A read
// allocates nothing for the state; get's one allocation boxes its
// string response.
func TestMapStateAllocs(t *testing.T) {
	kc, set, dir := mapStates(64)
	var (
		key  string
		st   spec.State
		resp any
	)
	for _, c := range []struct {
		what string
		max  float64
		run  func()
	}{
		{"kcounter Key", 2, func() { key = KCounter{}.Key(kc) }},
		{"gset Key", 2, func() { key = GSet{}.Key(set) }},
		{"directory Key", 2, func() { key = Directory{}.Key(dir) }},
		{"vinc of a present key", 2, applyAllocs(KCounter{}, kc, VInc("k10", 1), &st, &resp)},
		{"vinc of a new key", 2, applyAllocs(KCounter{}, kc, VInc("k100", 1), &st, &resp)},
		{"add", 2, applyAllocs(GSet{}, set, Add("k100"), &st, &resp)},
		{"put", 2, applyAllocs(Directory{}, dir, Put("k10", "x"), &st, &resp)},
		{"vread", 0, applyAllocs(KCounter{}, kc, VRead("k10"), &st, &resp)},
		{"get", 1, applyAllocs(Directory{}, dir, Get("k10"), &st, &resp)},
	} {
		if got := testing.AllocsPerRun(100, c.run); got > c.max {
			t.Errorf("%s: %.0f allocations, want at most %.0f", c.what, got, c.max)
		}
	}
	_, _, _ = key, st, resp
}

// applyAllocs returns a closure applying inv to st, for AllocsPerRun.
func applyAllocs(s spec.Spec, st spec.State, inv spec.Inv, out *spec.State, resp *any) func() {
	return func() { *out, *resp = s.Apply(st, inv) }
}

// TestMapStateResponsesDoNotAlias: the slices members and getall return
// are the caller's, and writing to them leaves the state as it was.
func TestMapStateResponsesDoNotAlias(t *testing.T) {
	_, set, dir := mapStates(8)
	for _, c := range []struct {
		s   spec.Spec
		st  spec.State
		inv spec.Inv
	}{{GSet{}, set, Members()}, {Directory{}, dir, GetAll()}} {
		key := c.s.Key(c.st)
		_, resp := c.s.Apply(c.st, c.inv)
		for i := range resp.([]string) {
			resp.([]string)[i] = "overwritten"
		}
		if c.s.Key(c.st) != key {
			t.Errorf("%s: writing to the %s response changed the state", c.s.Name(), c.inv.Op)
		}
	}
}
