package types

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"strings"
)

// sorted is an immutable map-valued state: its entries in increasing
// key order, at most one per key. Reads binary-search it, a mutation
// copies it once, and its spec.Key is written in entry order, with no
// sort. Apply never writes to a sorted it was handed, and responses
// never alias one.
type sorted[V comparable] []entry[V]

type entry[V comparable] struct {
	k string
	v V
}

// find returns k's position in s, or the position where k would be
// inserted, and whether k is present.
func (s sorted[V]) find(k string) (int, bool) {
	return slices.BinarySearchFunc(s, k, func(e entry[V], k string) int { return strings.Compare(e.k, k) })
}

// get returns k's value, or the zero value when k is absent.
func (s sorted[V]) get(k string) V {
	if i, ok := s.find(k); ok {
		return s[i].v
	}
	var zero V
	return zero
}

// with returns a copy of s in which k maps to v.
func (s sorted[V]) with(k string, v V) sorted[V] {
	i, ok := s.find(k)
	if ok {
		out := slices.Clone(s)
		out[i].v = v
		return out
	}
	out := make(sorted[V], len(s)+1)
	copy(out, s[:i])
	out[i] = entry[V]{k, v}
	copy(out[i+1:], s[i:])
	return out
}

// without returns a copy of s without k, or s itself when k is absent.
func (s sorted[V]) without(k string) sorted[V] {
	i, ok := s.find(k)
	if !ok {
		return s
	}
	return slices.Concat(s[:i], s[i+1:])
}

// key is the canonical, injective spec.Key of s: each entry's key
// prefixed by its length, then its value (see appendValue), in a buffer
// sized exactly. A length-prefixed key and a self-delimiting value
// cannot forge an entry boundary, and the entry order is canonical, so
// distinct states never share a key.
func (s sorted[V]) key() string {
	n := 0
	for i := range s {
		n += stringLen(s[i].k) + valueLen(&s[i].v)
	}
	b := make([]byte, 0, n)
	for i := range s {
		b = appendValue(appendString(b, s[i].k), &s[i].v)
	}
	return string(b)
}

// valueLen and appendValue size and write an entry's value in its key:
// an integer as a varint, a string length-prefixed, and a set member's
// empty value as nothing.
func valueLen[V comparable](v *V) int {
	switch v := any(v).(type) {
	case *int64:
		return uvarintLen(zigzag(*v))
	case *string:
		return stringLen(*v)
	}
	return 0
}

func appendValue[V comparable](b []byte, v *V) []byte {
	switch v := any(v).(type) {
	case *int64:
		return binary.AppendVarint(b, *v)
	case *string:
		return appendString(b, *v)
	case *struct{}:
		return b
	}
	panic(fmt.Sprintf("types: no key encoding for %T", *v))
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// uvarintLen is the length of x's uvarint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

func stringLen(str string) int { return uvarintLen(uint64(len(str))) + len(str) }

// sortedOf returns m's entries as a sorted.
func sortedOf[M ~map[string]V, V comparable](m M) sorted[V] {
	s := make(sorted[V], 0, len(m))
	for k, v := range m {
		s = append(s, entry[V]{k, v})
	}
	slices.SortFunc(s, func(a, b entry[V]) int { return strings.Compare(a.k, b.k) })
	return s
}

// appendString appends str prefixed by its length.
func appendString(b []byte, str string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(str))), str...)
}
