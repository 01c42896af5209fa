package types

import (
	"sort"
	"strconv"
)

// sortedKeys returns m's keys in increasing order.
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// mapKey is the canonical, injective spec.Key of a map-valued state:
// its entries in increasing key order, each key quoted and followed by
// its value as val appends it. A quoted key is self-delimiting, so no
// element name can forge a separator and two distinct maps never share
// an encoding.
func mapKey[M ~map[string]V, V any](m M, val func([]byte, V) []byte) string {
	keys := sortedKeys(m)
	b := make([]byte, 0, 16*len(keys))
	for _, k := range keys {
		b = val(strconv.AppendQuote(b, k), m[k])
	}
	return string(b)
}

// appendIntVal and appendStringVal are mapKey value encoders for
// integer- and string-valued maps.
func appendIntVal(b []byte, v int64) []byte {
	return append(strconv.AppendInt(append(b, '='), v, 10), ';')
}

func appendStringVal(b []byte, v string) []byte {
	return append(strconv.AppendQuote(append(b, '='), v), ';')
}
