package spec

import (
	"reflect"
	"testing"
)

// partCounter is a minimal keyed counter implementing Partitionable,
// local to this package so the gate can be tested without importing
// internal/types (which imports spec).
type partCounter struct{}

type pcState map[string]int64

func (partCounter) Name() string    { return "part-counter" }
func (partCounter) Init() State     { return pcState{} }
func (partCounter) Pure(i Inv) bool { return i.Op == "read" || i.Op == "sum" }

func (partCounter) Key(s State) string { return "unused" }

func (partCounter) Apply(s State, in Inv) (State, any) {
	m := s.(pcState)
	switch in.Op {
	case "inc":
		kv := in.Arg.([2]any)
		out := make(pcState, len(m)+1)
		for k, v := range m {
			out[k] = v
		}
		out[kv[0].(string)] += kv[1].(int64)
		if out[kv[0].(string)] == 0 {
			delete(out, kv[0].(string))
		}
		return out, nil
	case "read":
		return m, m[in.Arg.(string)]
	case "sum":
		var t int64
		for _, v := range m {
			t += v
		}
		return m, t
	default:
		panic("part-counter: " + in.Op)
	}
}

func (partCounter) Equal(a, b State) bool {
	return reflect.DeepEqual(a, b)
}

func (partCounter) Commutes(p, q Inv) bool {
	if p.Op == "inc" && q.Op == "inc" {
		return true
	}
	pure := func(i Inv) bool { return i.Op == "read" || i.Op == "sum" }
	if pure(p) && pure(q) {
		return true
	}
	key := func(i Inv) string {
		if i.Op == "inc" {
			return i.Arg.([2]any)[0].(string)
		}
		if i.Op == "read" {
			return i.Arg.(string)
		}
		return ""
	}
	if (p.Op == "inc" && q.Op == "read") || (p.Op == "read" && q.Op == "inc") {
		return key(p) != key(q) && key(p) != "" && key(q) != ""
	}
	return false
}

func (partCounter) Overwrites(q, p Inv) bool {
	return p.Op == "read" || p.Op == "sum"
}

func (partCounter) PartitionKey(in Inv) (string, bool) {
	switch in.Op {
	case "inc":
		return in.Arg.([2]any)[0].(string), true
	case "read":
		return in.Arg.(string), true
	}
	return "", false
}

func (partCounter) MergeResponses(in Inv, parts []any) any {
	if in.Op != "sum" {
		return nil
	}
	var t int64
	for _, p := range parts {
		t += p.(int64)
	}
	return t
}

func pcInc(k string, d int64) Inv { return Inv{Op: "inc", Arg: [2]any{k, d}} }
func pcRead(k string) Inv         { return Inv{Op: "read", Arg: k} }
func pcSum() Inv                  { return Inv{Op: "sum"} }

func pcSamples() []Inv {
	return []Inv{pcInc("a", 1), pcInc("b", 2), pcInc("b", -2), pcRead("a"), pcRead("b"), pcSum()}
}

// badMerge breaks MergeResponses (drops the last partition) so the
// executable half of the gate has something to catch.
type badMerge struct{ partCounter }

func (badMerge) MergeResponses(in Inv, parts []any) any {
	if in.Op != "sum" {
		return nil
	}
	var t int64
	for _, p := range parts[:len(parts)-1] {
		t += p.(int64)
	}
	return t
}

// badKey misroutes: it claims sum touches a single key, so the split
// replay reads one partition where the whole object was meant.
type badKey struct{ partCounter }

func (badKey) PartitionKey(in Inv) (string, bool) {
	if in.Op == "sum" {
		return "a", true
	}
	var pc partCounter
	return pc.PartitionKey(in)
}

func TestCheckPartitionableAccepts(t *testing.T) {
	ok, why := CheckPartitionable(partCounter{}, pcSamples())
	if !ok {
		t.Fatalf("partCounter rejected: %s", why)
	}
}

func TestCheckPartitionableUnwrapsBatch(t *testing.T) {
	// The batched form delegates its key space to the base spec; the
	// gate must see through it.
	if _, ok := AsPartitionable(Batch(partCounter{})); !ok {
		t.Fatalf("AsPartitionable does not unwrap Batch")
	}
}

func TestCheckPartitionableRejectsNonPartitionable(t *testing.T) {
	// A spec without the contract degrades, with a reason.
	ok, why := CheckPartitionable(toy{}, nil)
	if ok || why == "" {
		t.Fatalf("toy accepted (ok=%v why=%q)", ok, why)
	}
}

func TestCheckPartitionableRejectsBadMerge(t *testing.T) {
	ok, why := CheckPartitionable(badMerge{}, pcSamples())
	if ok {
		t.Fatalf("badMerge accepted")
	}
	t.Logf("badMerge rejected: %s", why)
}

func TestCheckPartitionableRejectsBadKey(t *testing.T) {
	ok, why := CheckPartitionable(badKey{}, pcSamples())
	if ok {
		t.Fatalf("badKey accepted")
	}
	t.Logf("badKey rejected: %s", why)
}

func TestPartitionIndexDeterministicAndInRange(t *testing.T) {
	for _, key := range []string{"", "a", "b", "user-42", "k0"} {
		for _, s := range []int{1, 2, 3, 8} {
			i := PartitionIndex(key, s)
			if i < 0 || i >= s {
				t.Fatalf("PartitionIndex(%q,%d)=%d out of range", key, s, i)
			}
			if j := PartitionIndex(key, s); j != i {
				t.Fatalf("PartitionIndex(%q,%d) unstable: %d then %d", key, s, i, j)
			}
		}
	}
	// The sample alphabet must actually spread across 2 partitions, or
	// the gate's split replay would degenerate.
	if PartitionIndex("a", 2) == PartitionIndex("b", 2) &&
		PartitionIndex("a", 2) == PartitionIndex("c", 2) {
		t.Fatalf("a, b, c all land on partition %d of 2", PartitionIndex("a", 2))
	}
}
