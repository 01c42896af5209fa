package types

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/spec"
)

// Directory (last-writer-wins map) ops. The paper's introduction names
// "sets, queues, directories, and so on" as the long-lived objects of
// interest; the directory below is the largest member of that list
// that fits Property 1: puts to the same key overwrite one another
// (last writer wins), puts to distinct keys commute, delete is a put
// of a tombstone, and lookups are overwritten by everything.
const (
	OpPut    = "put"
	OpDel    = "del"
	OpGet    = "get"
	OpGetAll = "getall"
)

// KV is a put argument.
type KV struct {
	K, V string
}

// Put builds a put(k, v) invocation.
func Put(k, v string) spec.Inv { return spec.Inv{Op: OpPut, Arg: KV{k, v}} }

// Del builds a del(k) invocation.
func Del(k string) spec.Inv { return spec.Inv{Op: OpDel, Arg: k} }

// Get builds a get(k) invocation; its response is the value or "".
func Get(k string) spec.Inv { return spec.Inv{Op: OpGet, Arg: k} }

// GetAll builds a getall() invocation; its response is the sorted
// "k=v" list.
func GetAll() spec.Inv { return spec.Inv{Op: OpGetAll} }

// dirState is an immutable string map.
type dirState = sorted[string]

// Directory is a last-writer-wins map satisfying Property 1.
type Directory struct{}

// Name identifies the type.
func (Directory) Name() string { return "directory" }

// Init returns the empty directory.
func (Directory) Init() spec.State { return dirState(nil) }

// Apply executes one operation.
func (Directory) Apply(s spec.State, inv spec.Inv) (spec.State, any) {
	m := s.(dirState)
	switch inv.Op {
	case OpPut:
		kv := inv.Arg.(KV)
		return m.with(kv.K, kv.V), nil
	case OpDel:
		k := inv.Arg.(string)
		if _, ok := m.find(k); !ok {
			return s, nil
		}
		return m.without(k), nil
	case OpGet:
		return s, m.get(inv.Arg.(string))
	case OpGetAll:
		// Sorted by "k=v", which differs from key order for keys such
		// as "a" and "a=".
		out := make([]string, len(m))
		for i, e := range m {
			out[i] = e.k + "=" + e.v
		}
		sort.Strings(out)
		return s, out
	default:
		panic(fmt.Sprintf("directory: unknown operation %q", inv.Op))
	}
}

// Equal compares states entry-wise.
func (Directory) Equal(a, b spec.State) bool { return slices.Equal(a.(dirState), b.(dirState)) }

// Key encodes the state canonically and injectively (see sorted.key).
func (Directory) Key(s spec.State) string { return s.(dirState).key() }

// key returns the key an invocation touches, or "" for getall.
func dirKey(in spec.Inv) string {
	switch in.Op {
	case OpPut:
		return in.Arg.(KV).K
	case OpDel, OpGet:
		return in.Arg.(string)
	default:
		return ""
	}
}

// mutates reports whether the op writes.
func dirMutates(in spec.Inv) bool { return in.Op == OpPut || in.Op == OpDel }

// Commutes: operations on distinct keys commute; reads commute with
// reads; identical mutations commute trivially.
func (Directory) Commutes(p, q spec.Inv) bool {
	if !dirMutates(p) && !dirMutates(q) {
		// get/getall pairs: responses depend only on the (unchanged)
		// state, so they commute only if neither mutates — which holds
		// here — regardless of keys.
		return true
	}
	if p.Op == OpGetAll || q.Op == OpGetAll {
		return false // getall observes every key; no mutation commutes with it
	}
	if dirMutates(p) && dirMutates(q) {
		if dirKey(p) != dirKey(q) {
			return true
		}
		return p == q // identical mutation twice
	}
	// One mutation, one get: they commute when the keys differ.
	return dirKey(p) != dirKey(q)
}

// Overwrites: a mutation of key k overwrites any operation that only
// touches k (put/del/get of k) and any pure read; everything
// overwrites get and getall.
func (Directory) Overwrites(q, p spec.Inv) bool {
	if p.Op == OpGet || p.Op == OpGetAll {
		return true
	}
	if dirMutates(q) && dirMutates(p) && dirKey(q) == dirKey(p) {
		return true
	}
	return false
}

// SampleInvocations returns a representative invocation set.
func (Directory) SampleInvocations() []spec.Inv {
	return []spec.Inv{
		Put("a", "1"), Put("a", "2"), Put("b", "9"),
		Del("a"), Del("c"), Get("a"), Get("b"), GetAll(),
	}
}

// SampleStates returns representative states.
func (Directory) SampleStates() []spec.State {
	return []spec.State{
		dirState{},
		dirState{{"a", "1"}},
		dirState{{"a", "2"}, {"b", "9"}, {"c", "x"}},
	}
}

// Pure declares get and getall as having no effect.
func (Directory) Pure(inv spec.Inv) bool { return inv.Op == OpGet || inv.Op == OpGetAll }

// StickyBit ops.
const (
	OpSet     = "set"
	OpReadBit = "readbit"
)

// Set builds a set(v) invocation.
func Set(v int64) spec.Inv { return spec.Inv{Op: OpSet, Arg: v} }

// ReadBit builds a readbit() invocation; response −1 when unset.
func ReadBit() spec.Inv { return spec.Inv{Op: OpReadBit} }

// StickyBit is the second negative witness, and the sharpest one: a
// write-once bit (the first set wins; later sets are ignored) IS a
// consensus object — everyone can decide the winning set's value — so
// Section 1's impossibility says it has no deterministic wait-free
// register implementation. Algebraically: set(0) and set(1) neither
// commute (the surviving value differs by order) nor overwrite each
// other (the first one's effect is permanent), so Property 1 fails.
type StickyBit struct{}

// stickyState: −1 unset, else the stuck value.

// Name identifies the type.
func (StickyBit) Name() string { return "stickybit" }

// Init returns the unset bit.
func (StickyBit) Init() spec.State { return int64(-1) }

// Apply executes one operation.
func (StickyBit) Apply(s spec.State, inv spec.Inv) (spec.State, any) {
	v := s.(int64)
	switch inv.Op {
	case OpSet:
		if v == -1 {
			return inv.Arg.(int64), nil
		}
		return v, nil
	case OpReadBit:
		return v, v
	default:
		panic(fmt.Sprintf("stickybit: unknown operation %q", inv.Op))
	}
}

// Equal compares states.
func (StickyBit) Equal(a, b spec.State) bool { return a.(int64) == b.(int64) }

// Key encodes the state.
func (StickyBit) Key(s spec.State) string { return fmt.Sprint(s.(int64)) }

// Commutes: reads with reads; identical sets with themselves.
func (StickyBit) Commutes(p, q spec.Inv) bool {
	if p.Op == OpReadBit && q.Op == OpReadBit {
		return true
	}
	return p.Op == OpSet && q.Op == OpSet && p.Arg == q.Arg
}

// Overwrites: everything overwrites a read; nothing overwrites a set —
// the first set's effect is permanent, which is exactly the problem.
func (StickyBit) Overwrites(q, p spec.Inv) bool { return p.Op == OpReadBit }

// SampleInvocations returns a representative invocation set.
func (StickyBit) SampleInvocations() []spec.Inv {
	return []spec.Inv{Set(0), Set(1), ReadBit()}
}

// SampleStates returns representative states.
func (StickyBit) SampleStates() []spec.State {
	return []spec.State{int64(-1), int64(0), int64(1)}
}
