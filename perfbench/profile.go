package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the simulator packages a CPU sample can be charged to, by
// the last element of their import path under dualpar/internal/.
var cpuLayers = []string{
	"sim", "netsim", "pfs", "fs", "iosched", "disk", "mpi", "mpiio", "memcache",
	"core", "ext", "obs", "analyze", "burst", "fault", "workloads",
	"cluster", "check", "metrics", "tenant", "datatype",
}

// cpuWeights attributes the samples of a CPU profile (as runtime/pprof
// writes it: gzipped profile.proto) to layers, in sampled CPU nanoseconds.
// Each sample goes to the deepest dualpar/internal/<pkg> frame on its
// stack, so runtime frames (allocation, channel hand-offs, scheduling)
// count for their caller's layer; samples of the GC's background mark
// workers go to "gc", and samples with no simulator frame at all to
// "other".
func cpuWeights(raw []byte) (map[string]int64, error) {
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	w := make(map[string]int64)
	for _, s := range p.samples {
		w[p.layerOf(s.locs)] += s.value
	}
	return w, nil
}

// cpuShares turns summed layer weights into "cpu.<layer>" shares of the
// total, with every layer present.
func cpuShares(weights map[string]int64) map[string]float64 {
	var total int64
	for _, v := range weights {
		total += v
	}
	out := make(map[string]float64, len(cpuLayers)+2)
	for _, l := range append(append([]string{}, cpuLayers...), "gc", "other") {
		out["cpu."+l] = 0
		if total > 0 {
			out["cpu."+l] = float64(weights[l]) / float64(total)
		}
	}
	return out
}

const internalPrefix = "dualpar/internal/"

// layerOf names the layer a stack (leaf first) is charged to.
func (p *profile) layerOf(locs []uint64) string {
	for _, id := range locs {
		for _, fn := range p.locFuncs[id] {
			if fn == "runtime.gcBgMarkWorker" {
				return "gc"
			}
		}
	}
	for _, id := range locs {
		// Inlined frames come innermost first within a location.
		for _, fn := range p.locFuncs[id] {
			if !strings.HasPrefix(fn, internalPrefix) {
				continue
			}
			path := fn[len(internalPrefix):]
			// The package path ends at the first '.' after its last '/'.
			slash := strings.LastIndexByte(path, '/')
			if dot := strings.IndexByte(path[slash+1:], '.'); dot >= 0 {
				path = path[:slash+1+dot]
			}
			pkg := path[strings.LastIndexByte(path, '/')+1:]
			for _, l := range cpuLayers {
				if l == pkg {
					return l
				}
			}
			return "other"
		}
	}
	return "other"
}

// profile is the part of a profile.proto message the attribution needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]string // location id -> function names, innermost first
}

type sample struct {
	locs  []uint64 // leaf first
	value int64    // last sample value: CPU nanoseconds
}

// parseProfile decodes a gzipped profile.proto message with a minimal
// protobuf wire-format reader (the standard library has none).
func parseProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		funcName  = make(map[uint64]int64) // function id -> string index
		locLines  = make(map[uint64][]uint64)
		rawSample [][]byte
	)
	err = walk(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			rawSample = append(rawSample, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walk(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := walk(b, func(f, w int, v uint64, _ []byte) error {
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
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locFuncs: make(map[uint64][]string, len(locLines))}
	for id, fns := range locLines {
		names := make([]string, 0, len(fns))
		for _, f := range fns {
			if i := funcName[f]; i >= 0 && int(i) < len(strs) {
				names = append(names, strs[i])
			}
		}
		p.locFuncs[id] = names
	}
	for _, b := range rawSample {
		var s sample
		var values []int64
		err := walk(b, func(f, w int, v uint64, b []byte) error {
			switch f {
			case 1:
				if w == wireBytes {
					return unpack(b, func(x uint64) { s.locs = append(s.locs, x) })
				}
				s.locs = append(s.locs, v)
			case 2:
				if w == wireBytes {
					return unpack(b, func(x uint64) { values = append(values, int64(x)) })
				}
				values = append(values, int64(v))
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if len(values) > 0 {
			s.value = values[len(values)-1]
			p.samples = append(p.samples, s)
		}
	}
	return p, nil
}

// Protobuf wire types.
const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errTruncated = errors.New("truncated protobuf message")

// walk calls fn for every field of a protobuf message: v carries varint
// and fixed-width values, b the payload of length-delimited fields.
func walk(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := varint(data)
		if n == 0 {
			return errTruncated
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			v, n = varint(data)
			if n == 0 {
				return errTruncated
			}
			data = data[n:]
		case wire64:
			if len(data) < 8 {
				return errTruncated
			}
			for i := 7; i >= 0; i-- {
				v = v<<8 | uint64(data[i])
			}
			data = data[8:]
		case wire32:
			if len(data) < 4 {
				return errTruncated
			}
			for i := 3; i >= 0; i-- {
				v = v<<8 | uint64(data[i])
			}
			data = data[4:]
		case wireBytes:
			l, n := varint(data)
			if n == 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// unpack decodes a packed repeated varint field.
func unpack(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := varint(b)
		if n == 0 {
			return errTruncated
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

// varint decodes one base-128 varint; n == 0 means truncated or overlong.
func varint(b []byte) (v uint64, n int) {
	for shift := uint(0); shift < 64 && n < len(b); shift += 7 {
		c := b[n]
		n++
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, n
		}
	}
	return 0, 0
}
