package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers maps each repository package to the layer its CPU time is
// charged to, named after the repo's modules. The benchmark's own
// package (main) is the load generator and its probe.
var layers = map[string]string{
	"main":                    "gen",
	"repro/apram/shard":       "shard",
	"repro/apram/serve":       "serve",
	"repro/internal/core":     "core",
	"repro/internal/lingraph": "lingraph",
	"repro/internal/spec":     "spec",
	"repro/internal/types":    "spec",
	"repro/internal/snapshot": "snapshot",
	"repro/internal/lattice":  "snapshot",
	"repro/apram/telemetry":   "telemetry",
}

// layerNames lists every layer a CPU sample can be charged to.
var layerNames = []string{"gen", "shard", "serve", "core", "lingraph", "spec", "snapshot", "telemetry", "runtime"}

// pkgOf extracts the package path from a symbol name such as
// "repro/internal/core.(*Universal).Execute".
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuByLayer charges every sample of a gzipped pprof CPU profile to the
// innermost frame that belongs to a layer, so runtime work a layer
// calls (allocation, maps, write barriers) is charged to that layer.
// Samples under no layer frame go to "runtime". It returns CPU
// nanoseconds per layer.
func cpuByLayer(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	// layerOf[location id] is the layer of the location's innermost
	// layer frame, or "" when none of its (inlined) frames has one.
	layerOf := map[uint64]string{}
	for id, fns := range p.locations {
		for _, fid := range fns {
			if l, ok := layers[pkgOf(p.strings[p.functions[fid]])]; ok {
				layerOf[id] = l
				break
			}
		}
	}
	out := map[string]int64{}
	for _, s := range p.samples {
		layer := "runtime"
		for _, loc := range s.locs {
			if l := layerOf[loc]; l != "" {
				layer = l
				break
			}
		}
		out[layer] += s.nanos
	}
	return out, nil
}

// profile is the part of a pprof profile.proto the attribution needs.
type profile struct {
	strings   []string
	functions map[uint64]int64    // function id -> name string index
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	samples   []psample
}

type psample struct {
	locs  []uint64 // leaf first
	nanos int64    // the last sample value: CPU nanoseconds
}

// decodeProfile reads the fields of profile.proto that cpuByLayer
// uses: sample (2), location (4), function (5) and string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{functions: map[uint64]int64{}, locations: map[uint64][]uint64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s psample
			var vals []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, w, v, d)
				case 2:
					return appendVarints(&vals, w, v, d)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.nanos = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locations[id] = fns
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.functions[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, name := range p.functions {
		if name < 0 || int(name) >= len(p.strings) {
			return nil, errors.New("function name out of range")
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field, packed (wire type 2)
// or not.
func appendVarints(dst *[]uint64, wire int, v uint64, data []byte) error {
	if wire != 2 {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and either its varint value or its bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
