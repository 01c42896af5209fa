package lattice

// InPlace is an optional fast path for hot join loops: a lattice that
// can accumulate joins into a mutable scratch value instead of
// allocating a fresh element per join. The atomic snapshot's inner
// loop joins n−1 register values per pass. It copies only at a pass's
// first join of two incomparable values; after that, each generic Join
// allocates again, while InPlace accumulates into the one copy.
//
// Contract: acc values returned by NewAccum are private to the caller
// until passed to Freeze; Accumulate may mutate acc and must return
// it; Freeze ends the accumulation and returns an element that must
// thereafter be treated as immutable (implementations may return acc
// itself — the caller promises not to touch the accumulator again).
type InPlace interface {
	Lattice
	// NewAccum returns a fresh mutable accumulator holding v.
	NewAccum(v any) any
	// Accumulate joins x into acc, mutating and returning acc.
	Accumulate(acc, x any) any
	// Freeze finalizes acc into an immutable lattice element.
	Freeze(acc any) any
}

// NewAccum copies v into a mutable vector accumulator.
func (l Vector) NewAccum(v any) any {
	src := v.(Vec)
	l.check(src)
	out := make(Vec, l.N)
	copy(out, src)
	return out
}

// Accumulate performs the element-wise maximum-tag join in place. It
// returns acc itself, not dst: converting the slice header back to an
// interface would allocate on every join.
func (l Vector) Accumulate(acc, x any) any {
	dst, src := acc.(Vec), x.(Vec)
	l.check(dst)
	l.check(src)
	for i := range dst {
		if src[i].Tag > dst[i].Tag {
			dst[i] = src[i]
		}
	}
	return acc
}

// Freeze returns the accumulator as the final element; the caller must
// not mutate it afterwards.
func (l Vector) Freeze(acc any) any { return acc }

// NewAccum copies v into a mutable map accumulator.
func (MapMax) NewAccum(v any) any {
	src := v.(IntMap)
	out := make(IntMap, len(src)+4)
	for k, val := range src {
		out[k] = val
	}
	return out
}

// Accumulate performs the key-wise maximum join in place.
func (MapMax) Accumulate(acc, x any) any {
	dst, src := acc.(IntMap), x.(IntMap)
	for k, v := range src {
		if cur, ok := dst[k]; !ok || v > cur {
			dst[k] = v
		}
	}
	return dst
}

// Freeze returns the accumulator as the final element.
func (MapMax) Freeze(acc any) any { return acc }

// Compile-time checks that the fast paths stay wired up.
var (
	_ InPlace = Vector{}
	_ InPlace = MapMax{}
)
